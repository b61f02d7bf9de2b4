package diskcache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fakeBackend is an in-memory core.Backend that counts upstream traffic.
type fakeBackend struct {
	mu      sync.Mutex
	objects map[string][]byte
	reads   int
	bytes   int64
	ranges  []string // "name:offset+length" per ReadRange, in call order
	lent    [][]byte // the buffers an intoFake was lent, in call order
	delay   time.Duration
	closed  bool
}

func newFake() *fakeBackend {
	return &fakeBackend{objects: map[string][]byte{
		"records/a.pcr": seq(0, 1000),
		"records/b.pcr": seq(7, 800),
		"records/c.pcr": seq(13, 600),
	}}
}

// seq builds deterministic distinguishable bytes.
func seq(salt byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + salt
	}
	return b
}

func (f *fakeBackend) Open(name string) (io.ReadCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.objects[name]
	if !ok {
		return nil, fmt.Errorf("fake: no object %q", name)
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

func (f *fakeBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
	return f.read(nil, name, offset, length)
}

// read is ReadRange into dst when it has room.
func (f *fakeBackend) read(dst []byte, name string, offset, length int64) ([]byte, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.objects[name]
	if !ok {
		return nil, fmt.Errorf("fake: no object %q", name)
	}
	if offset+length > int64(len(data)) {
		return nil, fmt.Errorf("fake: range [%d,%d) past end of %q (%d bytes)", offset, offset+length, name, len(data))
	}
	f.reads++
	f.bytes += length
	f.ranges = append(f.ranges, fmt.Sprintf("%s:%d+%d", name, offset, length))
	out := core.BufferFor(dst, length)
	copy(out, data[offset:offset+length])
	return out, nil
}

// intoFake is a fakeBackend that also reads into a lent buffer
// (core.RangeReaderInto), keeping each buffer it is lent in lent.
type intoFake struct{ *fakeBackend }

func (f intoFake) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	f.mu.Lock()
	f.lent = append(f.lent, dst)
	f.mu.Unlock()
	return f.read(dst, name, offset, length)
}

func (f *fakeBackend) List() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var names []string
	for n := range f.objects {
		names = append(names, n)
	}
	return names, nil
}

func (f *fakeBackend) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *fakeBackend) counters() (int, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.bytes
}

// objectFile is the path of the named object's data file.
func (b *Backend) objectFile(name string) string { return b.path(fileKey(name)) }

func mustRead(t *testing.T, b *Backend, name string, offset, length int64, want []byte) {
	t.Helper()
	got, err := b.ReadRange(name, offset, length)
	if err != nil {
		t.Fatalf("ReadRange(%s, %d, %d): %v", name, offset, length, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadRange(%s, %d, %d): wrong bytes", name, offset, length)
	}
}

func TestMissHitAndDeltaUpgrade(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a := inner.objects["records/a.pcr"]

	// Cold miss: fetches [0,100).
	mustRead(t, b, "records/a.pcr", 0, 100, a[:100])
	// Warm hit: no upstream traffic.
	r0, _ := inner.counters()
	mustRead(t, b, "records/a.pcr", 0, 100, a[:100])
	mustRead(t, b, "records/a.pcr", 20, 50, a[20:70])
	if r, _ := inner.counters(); r != r0 {
		t.Fatalf("warm hits hit upstream: %d reads, want %d", r, r0)
	}
	// Upgrade: only the delta [100,300) moves.
	mustRead(t, b, "records/a.pcr", 0, 300, a[:300])
	if got := inner.ranges[len(inner.ranges)-1]; got != "records/a.pcr:100+200" {
		t.Fatalf("upgrade fetched %s, want records/a.pcr:100+200", got)
	}

	st := b.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.DeltaHits != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 delta hit", st)
	}
	if st.DeltaBytes != 200 || st.BytesFetched != 300 {
		t.Fatalf("stats = %+v, want 200 delta of 300 fetched", st)
	}

	// Growing an entry a byte at a time leaves one file of header + extent,
	// and the directory holds nothing but the lock and the data files.
	bb := inner.objects["records/b.pcr"]
	for n := int64(1); n <= 300; n++ {
		mustRead(t, b, "records/b.pcr", 0, n, bb[:n])
	}
	if fi, err := os.Stat(b.objectFile("records/b.pcr")); err != nil || fi.Size() != headerSize+300 {
		t.Fatalf("data file after 300 one-byte upgrades: %v, %v; want %d bytes", fi, err, headerSize+300)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	want := []string{fileKey("records/a.pcr"), fileKey("records/b.pcr"), "lock"}
	if slices.Sort(want); !slices.Equal(names, want) {
		t.Fatalf("cache directory holds %v, want %v: the lock and two data files", names, want)
	}
}

func TestWarmRestartServesWithoutUpstream(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	a := inner.objects["records/a.pcr"]
	bb := inner.objects["records/b.pcr"]
	mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
	mustRead(t, b, "records/b.pcr", 0, 200, bb[:200])
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// "Second process": same directory, same generation.
	inner2 := newFake()
	b2, err := Wrap(inner2, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.Stats(); st.Recovered != 2 || st.Discarded != 0 {
		t.Fatalf("recovery stats = %+v, want 2 recovered, 0 discarded", st)
	}
	mustRead(t, b2, "records/a.pcr", 0, 400, a[:400])
	mustRead(t, b2, "records/b.pcr", 0, 200, bb[:200])
	if r, _ := inner2.counters(); r != 0 {
		t.Fatalf("warm restart hit upstream %d times, want 0", r)
	}
	// A quality upgrade after restart still moves only the delta.
	mustRead(t, b2, "records/a.pcr", 0, 500, a[:500])
	if r, n := inner2.counters(); r != 1 || n != 100 {
		t.Fatalf("post-restart upgrade moved %d reads / %d bytes, want 1 / 100", r, n)
	}
}

func TestGenerationMismatchPurges(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, b, "records/a.pcr", 0, 100, inner.objects["records/a.pcr"][:100])
	b.Close()

	b2, err := Wrap(inner, dir, 1<<20, "gen2")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.Stats(); st.Recovered != 0 {
		t.Fatalf("recovered %d entries across generations, want 0", st.Recovered)
	}
	if b2.Len() != 0 || b2.UsedBytes() != 0 {
		t.Fatalf("cache not purged: %d entries, %d bytes", b2.Len(), b2.UsedBytes())
	}
	// The purged entry re-fetches cleanly.
	r0, _ := inner.counters()
	mustRead(t, b2, "records/a.pcr", 0, 100, inner.objects["records/a.pcr"][:100])
	if r, _ := inner.counters(); r != r0+1 {
		t.Fatalf("purged entry did not refetch")
	}
}

// TestTornHeaderRecovery simulates a crash mid-header-write: one data file's
// header holds a new extent under its old CRC. Reopening discards that entry
// and keeps the other, which serves without upstream traffic.
func TestTornHeaderRecovery(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	a := inner.objects["records/a.pcr"]
	bb := inner.objects["records/b.pcr"]
	mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
	mustRead(t, b, "records/b.pcr", 0, 200, bb[:200])
	path := b.objectFile("records/b.pcr")
	b.Close()

	// Half of a header rewrite landed: the extent field, not its CRC.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20]++
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	inner2 := newFake()
	b2, err := Wrap(inner2, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	st := b2.Stats()
	if st.Recovered != 1 || st.Discarded != 1 {
		t.Fatalf("recovery stats = %+v, want 1 recovered and 1 discarded", st)
	}
	// The surviving entry serves warm; the torn one refetches correctly.
	mustRead(t, b2, "records/a.pcr", 0, 400, a[:400])
	if r, _ := inner2.counters(); r != 0 {
		t.Fatalf("surviving entry hit upstream")
	}
	mustRead(t, b2, "records/b.pcr", 0, 200, bb[:200])
	if r, _ := inner2.counters(); r != 1 {
		t.Fatalf("torn entry served stale bytes without refetch")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refetched entry has no data file: %v", err)
	}
}

// TestExtentZeroHeaderDiscarded: a data file whose intact header, of this
// generation, names an empty extent is discarded at open, not recovered —
// a fill never writes one — and the object refetches on its first read.
func TestExtentZeroHeaderDiscarded(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	a := inner.objects["records/a.pcr"]
	bb := inner.objects["records/b.pcr"]
	mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
	mustRead(t, b, "records/b.pcr", 0, 200, bb[:200])
	path := b.objectFile("records/b.pcr")
	b.Close()

	h, _, err := readHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	h.extent, h.crc = 0, 0
	if err := os.WriteFile(path, h.marshal(filepath.Base(path)), 0o644); err != nil {
		t.Fatal(err)
	}

	inner2 := newFake()
	b2, err := Wrap(inner2, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.Stats(); st.Recovered != 1 || st.Discarded != 1 {
		t.Fatalf("recovery stats = %+v, want 1 recovered and 1 discarded", st)
	}
	mustRead(t, b2, "records/b.pcr", 0, 200, bb[:200])
	if st := b2.Stats(); st.Misses != 1 || st.DeltaHits != 0 {
		t.Fatalf("stats = %+v, want the discarded entry refetched as a miss", st)
	}
}

// faultyBackend injects one fault per arm into its upstream reads: the
// first read after arm waits for release and then fails by kind — an
// error, an answer a byte short, or a panic — and the read after it waits
// for resume, so a test can look at the tier between the failed fill and
// the next one.
type faultyBackend struct {
	*fakeBackend
	kind  string
	calls atomic.Int32 // reads since arm, once armed
	armed atomic.Bool

	entered, release, refetch, resume chan struct{}
}

func (f *faultyBackend) arm() {
	f.entered, f.release = make(chan struct{}), make(chan struct{})
	f.refetch, f.resume = make(chan struct{}), make(chan struct{})
	f.calls.Store(0)
	f.armed.Store(true)
}

func (f *faultyBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
	if f.armed.Load() {
		switch f.calls.Add(1) {
		case 1:
			close(f.entered)
			<-f.release
			switch f.kind {
			case "error":
				return nil, errors.New("store fault")
			case "panic":
				panic("store fault")
			}
			got, err := f.fakeBackend.ReadRange(name, offset, length)
			return got[:len(got)-1], err
		case 2:
			close(f.refetch)
			f.armed.Store(false)
			<-f.resume
		}
	}
	return f.fakeBackend.ReadRange(name, offset, length)
}

// parked waits until a read is blocked on a channel inside the tier, other
// than the filling read (which blocks in a faulty or gated store): a read
// waiting on that read's fill.
func parked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if lines := strings.SplitN(g, "\n", 3); len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "repro/internal/") && !strings.HasPrefix(lines[1], "repro/internal/diskcache.(*faultyBackend)") &&
				!strings.HasPrefix(lines[1], "repro/internal/diskcache.(*gatedBackend)") {
				return
			}
		}
	}
	t.Fatal("no read waited on the fill")
}

// await fails the test unless ch yields within five seconds.
func await[T any](t *testing.T, ch <-chan T, msg string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
		panic("unreachable")
	}
}

// TestShortUpstreamAnswerCachesNothing: a fill whose upstream read fails,
// comes up short or panics — a cold fill and an upgrade alike — fails the
// read that filled, with an error naming the fault, and caches none of it:
// while the read that waited on the fill refills the object itself, Len,
// UsedBytes and Stats are as before, the cold object has no data file and
// the upgraded one keeps its extent. Each waiting read fetches exactly what
// its object lacks, later reads are served warm, and Close returns.
func TestShortUpstreamAnswerCachesNothing(t *testing.T) {
	for _, kind := range []string{"error", "short", "panic"} {
		t.Run(kind, func(t *testing.T) {
			inner := &faultyBackend{fakeBackend: newFake(), kind: kind}
			b, err := Wrap(inner, t.TempDir(), 1<<20, "gen1")
			if err != nil {
				t.Fatal(err)
			}
			a := inner.objects["records/a.pcr"]
			bb := inner.objects["records/b.pcr"]
			mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
			// read is ReadRange with a panic recovered into an error, as
			// a caller that guards its reads has it.
			read := func(name string, n int64) (got []byte, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("read panicked: %v", r)
					}
				}()
				return b.ReadRange(name, 0, n)
			}

			for _, fill := range []struct {
				name       string
				have, want int64
			}{{"records/b.pcr", 0, 200}, {"records/a.pcr", 400, 700}} {
				data := inner.objects[fill.name]
				n0, used0, st0 := b.Len(), b.UsedBytes(), b.Stats()
				inner.arm()
				failed, waited := make(chan error, 1), make(chan error, 1)
				go func() {
					_, err := read(fill.name, fill.want)
					failed <- err
				}()
				<-inner.entered
				go func() {
					got, err := read(fill.name, fill.want)
					if err == nil && !bytes.Equal(got, data[:fill.want]) {
						err = fmt.Errorf("the read that waited on %s returned wrong bytes", fill.name)
					}
					waited <- err
				}()
				parked(t)
				close(inner.release)
				await(t, inner.refetch, "the read that waited on "+fill.name+" never refilled")
				wantErr := map[string]string{
					"error": "store fault",
					"short": fmt.Sprintf("diskcache: upstream returned %d bytes of %s, want %d", fill.want-fill.have-1, fill.name, fill.want-fill.have),
					"panic": fmt.Sprintf("diskcache: fill of %s panicked: store fault", fileKey(fill.name)),
				}[kind]
				if err := <-failed; err == nil || err.Error() != wantErr {
					t.Fatalf("the fill of %s failed with %v, want %q", fill.name, err, wantErr)
				}
				if n, used, st := b.Len(), b.UsedBytes(), b.Stats(); n != n0 || used != used0 || st != st0 {
					t.Fatalf("after the failed fill of %s: len %d, used %d, stats %+v; before it %d, %d, %+v", fill.name, n, used, st, n0, used0, st0)
				}
				h, _, err := readHeader(b.objectFile(fill.name))
				if fill.have == 0 && !os.IsNotExist(err) {
					t.Fatalf("a failed cold fill left a data file: %v", err)
				}
				if fill.have > 0 && (err != nil || h.extent != fill.have) {
					t.Fatalf("a failed upgrade moved the extent (%v): %d, want %d", err, h.extent, fill.have)
				}
				close(inner.resume)
				if err := await(t, waited, "the read that waited on "+fill.name+" never returned"); err != nil {
					t.Fatal(err)
				}
				if got, want := inner.ranges[len(inner.ranges)-1], fmt.Sprintf("%s:%d+%d", fill.name, fill.have, fill.want-fill.have); got != want {
					t.Fatalf("the read that waited fetched %s, want %s", got, want)
				}
			}
			reads, _ := inner.counters()
			mustRead(t, b, "records/a.pcr", 0, 700, a[:700])
			mustRead(t, b, "records/b.pcr", 0, 200, bb[:200])
			if r, _ := inner.counters(); r != reads {
				t.Fatal("the refilled entries did not serve warm")
			}
			closed := make(chan error, 1)
			go func() { closed <- b.Close() }()
			if err := await(t, closed, "Close never returned"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornPrefixFileRecovery simulates a crash mid-data-write (the header
// promises more bytes than the file holds) and silent corruption (CRC
// mismatch). A short file is discarded at open, where a stat sees it; a
// corrupt one is recovered, then quarantined by its first read's CRC check.
// Either way the read returns clean refetched bytes and the healthy entry
// still serves warm.
func TestTornPrefixFileRecovery(t *testing.T) {
	for _, damage := range []string{"truncate", "corrupt"} {
		t.Run(damage, func(t *testing.T) {
			inner := newFake()
			dir := t.TempDir()
			victim := warmTwoEntries(t, inner, dir)
			switch damage {
			case "truncate":
				if err := os.Truncate(victim, 123); err != nil {
					t.Fatal(err)
				}
			case "corrupt":
				raw, err := os.ReadFile(victim)
				if err != nil {
					t.Fatal(err)
				}
				raw[57] ^= 0xFF
				if err := os.WriteFile(victim, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			inner2 := newFake()
			b2, err := Wrap(inner2, dir, 1<<20, "gen1")
			if err != nil {
				t.Fatal(err)
			}
			defer b2.Close()
			atOpen := Stats{Recovered: 1, Discarded: 1}
			if damage == "corrupt" {
				// The flipped byte is invisible to a stat: that is what
				// keeps the open cheap.
				atOpen = Stats{Recovered: 2}
			}
			if st := b2.Stats(); st.Recovered != atOpen.Recovered || st.Discarded != atOpen.Discarded {
				t.Fatalf("open stats = %+v, want %d recovered / %d discarded", st, atOpen.Recovered, atOpen.Discarded)
			}
			// The damaged entry is refetched with clean bytes — corrupt data
			// never reaches the caller — and counted discarded either way.
			a := inner2.objects["records/a.pcr"]
			mustRead(t, b2, "records/a.pcr", 0, 400, a[:400])
			if st := b2.Stats(); st.Recovered != 1 || st.Discarded != 1 || st.Misses != 1 {
				t.Fatalf("first-read stats = %+v, want 1 recovered / 1 discarded / 1 miss", st)
			}
			if r, _ := inner2.counters(); r != 1 {
				t.Fatalf("damaged entry refetched %d times, want 1", r)
			}
			// The healthy entry still serves warm.
			bb := inner2.objects["records/b.pcr"]
			mustRead(t, b2, "records/b.pcr", 0, 200, bb[:200])
			if r, _ := inner2.counters(); r != 1 {
				t.Fatalf("healthy entry hit upstream after recovery")
			}
			// The refetched entry is trusted again: a repeat read is a hit.
			hits := b2.Stats().Hits
			mustRead(t, b2, "records/a.pcr", 0, 400, a[:400])
			if st := b2.Stats(); st.Hits != hits+1 {
				t.Fatalf("refetched entry not served as a hit: %+v", st)
			}
		})
	}
}

// TestDataPastJournaledExtentIsTrimmed simulates a crash after a data write
// but before its header rewrite: the file holds more bytes than the header
// promises. The prefix the header describes must survive and the tail must
// be trimmed, and a later upgrade extends that prefix at its extent.
func TestDataPastJournaledExtentIsTrimmed(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	a := inner.objects["records/a.pcr"]
	mustRead(t, b, "records/a.pcr", 0, 300, a[:300])
	path := b.objectFile("records/a.pcr")
	b.Close()

	// Garbage no header describes lands at the end of the file.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("garbage-from-a-torn-append"))
	f.Close()

	inner2 := newFake()
	b2, err := Wrap(inner2, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.Stats(); st.Recovered != 1 || st.Discarded != 0 {
		t.Fatalf("recovery stats = %+v, want the described prefix recovered", st)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != headerSize+300 {
		t.Fatalf("data file after open: %v, %v; want the tail trimmed to %d bytes", fi, err, headerSize+300)
	}
	// A quality upgrade must extend the prefix at exactly its extent.
	mustRead(t, b2, "records/a.pcr", 0, 500, a[:500])
	if got := inner2.ranges[len(inner2.ranges)-1]; got != "records/a.pcr:300+200" {
		t.Fatalf("post-trim upgrade fetched %s, want records/a.pcr:300+200", got)
	}
	mustRead(t, b2, "records/a.pcr", 250, 150, a[250:400])
}

// TestSingleflightCoalescesConcurrentMisses: N workers asking for the same
// cold prefix must cost exactly one upstream fetch. Run under -race.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	inner := newFake()
	inner.delay = 20 * time.Millisecond
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := inner.objects["records/a.pcr"]

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := b.ReadRange("records/a.pcr", 0, 600)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, a[:600]) {
				errs <- fmt.Errorf("wrong bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r, _ := inner.counters(); r != 1 {
		t.Fatalf("%d concurrent misses cost %d upstream fetches, want 1", workers, r)
	}
	st := b.Stats()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced hits", st, workers-1)
	}
}

func TestEvictionHoldsBudgetAndSurvivesRestart(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1000, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, b, "records/a.pcr", 0, 600, inner.objects["records/a.pcr"][:600])
	mustRead(t, b, "records/b.pcr", 0, 600, inner.objects["records/b.pcr"][:600])
	if used := b.UsedBytes(); used > 1000 {
		t.Fatalf("budget not enforced: %d bytes used", used)
	}
	if st := b.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions under a 1000-byte budget")
	}
	if b.Contains("records/a.pcr", 1) {
		t.Fatal("LRU entry a not evicted")
	}
	if !b.Contains("records/b.pcr", 600) {
		t.Fatal("most recent entry b evicted")
	}
	b.Close()

	// The survivor — and only it — persists across restart.
	b2, err := Wrap(inner, dir, 1000, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.Stats(); st.Recovered != 1 {
		t.Fatalf("recovered %d entries, want 1", st.Recovered)
	}
	if !b2.Contains("records/b.pcr", 600) {
		t.Fatal("survivor not recovered")
	}
}

func TestShrunkCapacityEvictsOnOpen(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, b, "records/a.pcr", 0, 600, inner.objects["records/a.pcr"][:600])
	mustRead(t, b, "records/b.pcr", 0, 600, inner.objects["records/b.pcr"][:600])
	b.Close()

	b2, err := Wrap(inner, dir, 700, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if used := b2.UsedBytes(); used > 700 {
		t.Fatalf("shrunk budget not enforced on open: %d bytes", used)
	}
}

// TestWrapRefusesBadArguments: a tier of no bytes, a negative capacity, no
// inner backend and no directory are each refused; a zero-byte tier would
// evict every prefix it fills and serve nothing.
func TestWrapRefusesBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inner    core.Backend
		dir      string
		capacity int64
	}{
		{"zero capacity", newFake(), t.TempDir(), 0},
		{"negative capacity", newFake(), t.TempDir(), -1},
		{"nil inner", nil, t.TempDir(), 1 << 20},
		{"empty dir", newFake(), "", 1 << 20},
	} {
		if b, err := Wrap(tc.inner, tc.dir, tc.capacity, "gen1"); err == nil {
			b.Close()
			t.Errorf("%s: Wrap accepted it", tc.name)
		}
	}
}

func TestSecondOpenerFailsFast(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := Wrap(newFake(), dir, 1<<20, "gen1"); err == nil {
		t.Fatal("second opener of a locked cache directory should fail")
	}
	// After Close the directory is reusable.
	b.Close()
	b2, err := Wrap(newFake(), dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	b2.Close()
}

func TestOpenAndListDelegate(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rc, err := b.Open("records/a.pcr")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(data, inner.objects["records/a.pcr"]) {
		t.Fatal("Open did not delegate")
	}
	names, err := b.List()
	if err != nil || len(names) != 3 {
		t.Fatalf("List = %v, %v", names, err)
	}
}

// warmTwoEntries fills a cache with two prefixes and closes it, returning
// the victim object's data file path for damage injection.
func warmTwoEntries(t *testing.T, inner *fakeBackend, dir string) (victim string) {
	t.Helper()
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	a := inner.objects["records/a.pcr"]
	bb := inner.objects["records/b.pcr"]
	mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
	mustRead(t, b, "records/b.pcr", 0, 200, bb[:200])
	victim = b.objectFile("records/a.pcr")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return victim
}

// TestFirstHitOpensDataFileOnce: a recovered entry's first read checks its
// CRC and serves its window from one open and one pass over the data file;
// the next read takes the verified fast path, and an upgrade still moves
// only the delta.
func TestFirstHitOpensDataFileOnce(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	warmTwoEntries(t, inner, dir)

	opens := 0
	openForRead = func(name string) (*os.File, error) {
		opens++
		return os.Open(name)
	}
	t.Cleanup(func() { openForRead = os.Open })

	inner2 := newFake()
	b2, err := Wrap(inner2, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	a := inner2.objects["records/a.pcr"]
	mustRead(t, b2, "records/a.pcr", 100, 200, a[100:300])
	if opens != 1 {
		t.Fatalf("first hit opened the data file %d times, want 1", opens)
	}
	if st := b2.Stats(); st.Hits != 1 || st.Recovered != 2 || st.Discarded != 0 {
		t.Fatalf("first-hit stats = %+v, want 1 hit / 2 recovered / 0 discarded", st)
	}
	mustRead(t, b2, "records/a.pcr", 0, 400, a[:400])
	if st := b2.Stats(); opens != 2 || st.Hits != 2 {
		t.Fatalf("repeat read: %d opens, %d hits; want 2 / 2", opens, st.Hits)
	}
	if r, _ := inner2.counters(); r != 0 {
		t.Fatalf("warm reads hit upstream %d times", r)
	}
	mustRead(t, b2, "records/a.pcr", 0, 600, a[:600])
	if r, n := inner2.counters(); r != 1 || n != 200 {
		t.Fatalf("upgrade fetched %d ranges / %d bytes, want 1 / 200 (the delta)", r, n)
	}
}

// gatedBackend holds the first upgrade fetch of one object (a fetch at a
// non-zero offset, or at any offset with cold set) until released.
type gatedBackend struct {
	*fakeBackend
	name    string
	cold    bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func gate(inner *fakeBackend, name string) *gatedBackend {
	return &gatedBackend{fakeBackend: inner, name: name, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedBackend) hold(name string, offset int64) {
	if name == g.name && (offset > 0 || g.cold) {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
}

func (g *gatedBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
	g.hold(name, offset)
	return g.fakeBackend.ReadRange(name, offset, length)
}

// gatedInto is a gatedBackend whose fills read into the lent buffer.
type gatedInto struct{ *gatedBackend }

func (g gatedInto) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	g.hold(name, offset)
	return intoFake{g.fakeBackend}.ReadRangeInto(dst, name, offset, length)
}

// fetchPaths are the two ways a fill reaches a gated upstream: ReadRange,
// or ReadRangeInto where the inner backend has it. Each gates the fill.
var fetchPaths = []struct {
	name string
	into bool
}{
	{"ReadRange", false},
	{"ReadRangeInto", true},
}

// wrapGated opens a tier of the given capacity over g, reached by
// ReadRangeInto when into is set and by ReadRange otherwise, and checks
// when the test ends that its fills took that path.
func wrapGated(t *testing.T, g *gatedBackend, into bool, capacity int64) *Backend {
	t.Helper()
	var inner core.Backend = g
	if into {
		inner = gatedInto{g}
	}
	b, err := Wrap(inner, t.TempDir(), capacity, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Close()
		if lent := len(g.lent) > 0; lent != into {
			t.Errorf("fills read into a lent buffer: %v, want %v", lent, into)
		}
	})
	return b
}

// TestUpgradePinnedUnderEvictionPressure: while a's delta is being fetched,
// reads of other objects push the tier over budget. The object being
// upgraded is pinned, so another entry is evicted instead and the upgrade
// appends to the prefix it started from: one delta hit, exactly the delta
// fetched, no cold refetch.
func TestUpgradePinnedUnderEvictionPressure(t *testing.T) {
	for _, path := range fetchPaths {
		t.Run(path.name, func(t *testing.T) {
			inner := newFake()
			g := gate(inner, "records/a.pcr")
			b := wrapGated(t, g, path.into, 1500)
			a := inner.objects["records/a.pcr"]
			mustRead(t, b, "records/a.pcr", 0, 400, a[:400])

			upgraded := make(chan error, 1)
			go func() {
				got, err := b.ReadRange("records/a.pcr", 0, 700)
				if err == nil && !bytes.Equal(got, a[:700]) {
					err = fmt.Errorf("upgrade returned wrong bytes")
				}
				upgraded <- err
			}()
			<-g.entered // a is mid-upgrade and LRU-last
			mustRead(t, b, "records/b.pcr", 0, 600, inner.objects["records/b.pcr"][:600])
			mustRead(t, b, "records/c.pcr", 0, 600, inner.objects["records/c.pcr"][:600])
			if !b.Contains("records/a.pcr", 400) {
				t.Error("a evicted while its upgrade was in flight")
			}
			if b.Contains("records/b.pcr", 1) {
				t.Error("b not evicted in a's place")
			}
			before := b.Stats()
			close(g.release)
			if err := <-upgraded; err != nil {
				t.Fatal(err)
			}

			st := b.Stats()
			if st.DeltaHits != 1 || st.Misses != 3 {
				t.Fatalf("stats = %+v, want 1 delta hit and 3 misses", st)
			}
			if got := st.BytesFetched - before.BytesFetched; got != 300 || st.DeltaBytes != 300 {
				t.Fatalf("upgrade fetched %d bytes (%d delta), want exactly the 300-byte delta", got, st.DeltaBytes)
			}
			for _, r := range inner.ranges {
				if r == "records/a.pcr:0+700" {
					t.Fatalf("a refetched cold: upstream ranges %v", inner.ranges)
				}
			}
			if st.Evictions == 0 || !b.Contains("records/a.pcr", 700) {
				t.Fatalf("evictions = %d, a cached at 700: %v", st.Evictions, b.Contains("records/a.pcr", 700))
			}
			if used := b.UsedBytes(); used > 1500 {
				t.Fatalf("used = %d > capacity 1500 with nothing in flight", used)
			}
		})
	}
}

// TestDataFileRemovedMidUpgrade: a's data file is removed externally while
// its delta is being fetched — noticed either by the upgrade's own append
// or by a fast-path read that drops the entry in flight. The upgrade still
// returns upstream bytes, the entry is rebuilt from offset zero, and the
// rebuilt file serves later reads without upstream traffic.
func TestDataFileRemovedMidUpgrade(t *testing.T) {
	for _, noticed := range []string{"by-append", "by-hit"} {
		t.Run(noticed, func(t *testing.T) {
			for _, path := range fetchPaths {
				t.Run(path.name, func(t *testing.T) {
					inner := newFake()
					g := gate(inner, "records/a.pcr")
					b := wrapGated(t, g, path.into, 1<<20)
					a := inner.objects["records/a.pcr"]
					mustRead(t, b, "records/a.pcr", 0, 400, a[:400])

					upgraded := make(chan error, 1)
					go func() {
						got, err := b.ReadRange("records/a.pcr", 0, 700)
						if err == nil && !bytes.Equal(got, a[:700]) {
							err = fmt.Errorf("upgrade returned wrong bytes")
						}
						upgraded <- err
					}()
					<-g.entered
					path := b.objectFile("records/a.pcr")
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
					hit := make(chan error, 1)
					if noticed == "by-hit" {
						go func() {
							got, err := b.ReadRange("records/a.pcr", 0, 100)
							if err == nil && !bytes.Equal(got, a[:100]) {
								err = fmt.Errorf("fast-path read returned wrong bytes")
							}
							hit <- err
						}()
						for deadline := time.Now().Add(5 * time.Second); b.Contains("records/a.pcr", 1); time.Sleep(time.Millisecond) {
							if time.Now().After(deadline) {
								t.Fatal("fast-path read never dropped the damaged entry")
							}
						}
					} else {
						hit <- nil
					}
					close(g.release)
					if err := <-upgraded; err != nil {
						t.Fatal(err)
					}
					if err := <-hit; err != nil {
						t.Fatal(err)
					}

					if got := inner.ranges[len(inner.ranges)-1]; got != "records/a.pcr:0+700" {
						t.Fatalf("last upstream read %s, want the rebuild records/a.pcr:0+700", got)
					}
					size := int64(-1)
					if fi, err := os.Stat(path); err == nil {
						size = fi.Size()
					}
					if size != headerSize+700 {
						t.Errorf("rebuilt data file holds %d bytes, want header + 700", size)
					}
					st := b.Stats()
					if st.DeltaHits != 0 || st.Misses != 2 || st.BytesFetched != 400+300+700 {
						t.Errorf("stats = %+v, want 2 misses, no delta hit, 1400 bytes fetched", st)
					}
					reads, _ := inner.counters()
					mustRead(t, b, "records/a.pcr", 0, 100, a[:100])
					mustRead(t, b, "records/a.pcr", 0, 700, a[:700])
					if r, _ := inner.counters(); r != reads {
						t.Fatal("rebuilt entry did not serve from disk")
					}
				})
			}
		})
	}
}

// TestFillReadsIntoLentBuffer: over an inner backend that reads into a lent
// buffer, a cold fill hands it the caller's buffer, an upgrade hands it the
// slice of the caller's buffer behind the window's cached part, each
// fetches exactly the bytes past the cached extent, and every read returns
// the caller's backing array. A window that starts past the cached extent
// still fetches the whole prefix and lands in the caller's buffer.
func TestFillReadsIntoLentBuffer(t *testing.T) {
	inner := newFake()
	b, err := Wrap(intoFake{inner}, t.TempDir(), 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	buf := make([]byte, 1000)
	for _, step := range []struct {
		name      string
		off, n    int64
		fetch     string // the upstream read, "" for none
		lentAt    int64  // where in buf the buffer lent upstream starts, -1 for elsewhere
		lentBytes int64
	}{
		{"records/a.pcr", 0, 400, "records/a.pcr:0+400", 0, 400},       // cold fill
		{"records/a.pcr", 0, 700, "records/a.pcr:400+300", 400, 300},   // upgrade
		{"records/a.pcr", 100, 800, "records/a.pcr:700+200", 600, 200}, // upgrade of a window inside the prefix
		{"records/a.pcr", 0, 900, "", 0, 0},                            // warm
		{"records/b.pcr", 300, 100, "records/b.pcr:0+400", -1, 400},    // cold window past the extent
	} {
		reads, _ := inner.counters()
		lent := len(inner.lent)
		got, err := b.ReadRangeInto(buf, step.name, step.off, step.n)
		if err != nil {
			t.Fatal(err)
		}
		want := inner.objects[step.name][step.off : step.off+step.n]
		if !bytes.Equal(got, want) || &got[0] != &buf[0] {
			t.Fatalf("%s [%d,+%d): wrong bytes, or not in the caller's buffer", step.name, step.off, step.n)
		}
		r, _ := inner.counters()
		if step.fetch == "" {
			if r != reads {
				t.Fatalf("%s [%d,+%d): warm read went upstream", step.name, step.off, step.n)
			}
			continue
		}
		if r != reads+1 || inner.ranges[len(inner.ranges)-1] != step.fetch || len(inner.lent) != lent+1 {
			t.Fatalf("%s [%d,+%d): upstream reads %v, want one more, %s, read into a lent buffer", step.name, step.off, step.n, inner.ranges, step.fetch)
		}
		l := inner.lent[lent]
		if int64(len(l)) != step.lentBytes {
			t.Fatalf("%s [%d,+%d): lent %d bytes upstream, want %d", step.name, step.off, step.n, len(l), step.lentBytes)
		}
		if inBuf := &l[:1][0] == &buf[max(step.lentAt, 0)]; inBuf != (step.lentAt >= 0) {
			t.Fatalf("%s [%d,+%d): lent buffer in the caller's at %d: %v", step.name, step.off, step.n, step.lentAt, inBuf)
		}
	}
	if st := b.Stats(); st.Misses != 2 || st.DeltaHits != 2 || st.Hits != 1 || st.BytesFetched != 1300 || st.DeltaBytes != 500 {
		t.Fatalf("stats = %+v, want 2 misses, 2 delta hits, 1 hit, 1300 bytes fetched of which 500 delta", st)
	}
}

// TestCrashLosesOnlyWarmth: fills are not synced, so a machine crash may
// persist a header without its data. Two such crashes after a cold fill and
// an upgrade — the data file cut back to the pre-upgrade extent, or at full
// length with the upgrade's delta zeroed — leave the upgrade's header in
// place. After a reopen the entry is discarded (by the
// open-time stat, or by its first read's CRC), every read returns
// upstream's bytes, the entry is refetched exactly once, and the next read
// is a hit.
func TestCrashLosesOnlyWarmth(t *testing.T) {
	for _, crash := range []string{"cut-back", "zeroed-delta"} {
		t.Run(crash, func(t *testing.T) {
			inner := newFake()
			dir := t.TempDir()
			b, err := Wrap(inner, dir, 1<<20, "gen1")
			if err != nil {
				t.Fatal(err)
			}
			a := inner.objects["records/a.pcr"]
			mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
			mustRead(t, b, "records/a.pcr", 0, 700, a[:700])
			path := b.objectFile("records/a.pcr")
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			switch crash {
			case "cut-back":
				if err := os.Truncate(path, headerSize+400); err != nil {
					t.Fatal(err)
				}
			case "zeroed-delta":
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				clear(raw[headerSize+400:])
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if h, _, err := readHeader(path); err != nil || h.extent != 700 {
				t.Fatalf("header lost the upgrade (%v): extent %d", err, h.extent)
			}

			inner2 := newFake()
			b2, err := Wrap(inner2, dir, 1<<20, "gen1")
			if err != nil {
				t.Fatal(err)
			}
			defer b2.Close()
			mustRead(t, b2, "records/a.pcr", 0, 700, a[:700])
			mustRead(t, b2, "records/a.pcr", 100, 300, a[100:400])
			st := b2.Stats()
			if st.Recovered != 0 || st.Discarded != 1 || st.Misses != 1 || st.Hits != 1 {
				t.Fatalf("stats = %+v, want 0 recovered, 1 discarded, 1 miss, then 1 hit", st)
			}
			if r, n := inner2.counters(); r != 1 || n != 700 {
				t.Fatalf("refetched %d ranges / %d bytes, want the entry once: 1 / 700", r, n)
			}
		})
	}
}

// TestCloseStopsFillWrites: a fill whose fetch is in flight when Close
// returns writes nothing once the fetch comes back, and a read parked on
// that fill reads nothing once it wakes: both fail, and the directory's next
// owner finds no byte the fill wrote. In the parked row the fill upgrades a
// recovered entry whose extent holds the parked read's window, so only the
// closed check keeps that read out of the data file.
func TestCloseStopsFillWrites(t *testing.T) {
	for _, row := range []string{"cold", "parked"} {
		t.Run(row, func(t *testing.T) {
			inner := newFake()
			dir := t.TempDir()
			a := inner.objects["records/a.pcr"]
			g := gate(inner, "records/a.pcr")
			if row == "parked" {
				b, err := Wrap(inner, dir, 1<<20, "gen1")
				if err != nil {
					t.Fatal(err)
				}
				mustRead(t, b, "records/a.pcr", 0, 400, a[:400])
				b.Close()
			} else {
				g.cold = true
			}
			b, err := Wrap(g, dir, 1<<20, "gen1")
			if err != nil {
				t.Fatal(err)
			}
			filled, waited := make(chan error, 1), make(chan error, 1)
			go func() {
				_, err := b.ReadRange("records/a.pcr", 0, 700)
				filled <- err
			}()
			<-g.entered
			if row == "parked" {
				go func() {
					_, err := b.ReadRange("records/a.pcr", 0, 300)
					waited <- err
				}()
				parked(t)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			close(g.release)
			if err := <-filled; err == nil {
				t.Fatal("a fill whose fetch outlived Close succeeded")
			}
			if row == "parked" {
				if err := await(t, waited, "the parked read never returned"); !errors.Is(err, errClosed) {
					t.Fatalf("the read parked across Close returned %v, want %v", err, errClosed)
				}
				if h, _, err := readHeader(b.objectFile("records/a.pcr")); err != nil || h.extent != 400 {
					t.Fatalf("the data file after Close: extent %d (%v), want 400", h.extent, err)
				}
				return
			}
			des, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range des {
				if strings.HasPrefix(de.Name(), "obj-") {
					t.Fatalf("a fill wrote %s after Close", de.Name())
				}
			}
		})
	}
}

// TestLRUOrderSurvivesRestart: open reseeds the LRU in fill order, which
// each data file's header records, not in the order of the files' names.
// Three entries are filled in an order that is neither their names' order
// nor its reverse, then reopened with room for two: the entry filled first
// is the one evicted.
func TestLRUOrderSurvivesRestart(t *testing.T) {
	inner := newFake()
	dir := t.TempDir()
	byKey := []string{"records/a.pcr", "records/b.pcr", "records/c.pcr"}
	slices.SortFunc(byKey, func(x, y string) int { return strings.Compare(fileKey(x), fileKey(y)) })
	filled := []string{byKey[1], byKey[2], byKey[0]}
	b, err := Wrap(inner, dir, 1<<20, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range filled {
		mustRead(t, b, name, 0, 300, inner.objects[name][:300])
	}
	b.Close()

	b2, err := Wrap(inner, dir, 600, "gen1")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if st := b2.Stats(); st.Recovered != 3 || st.Evictions != 1 {
		t.Fatalf("reopen stats = %+v, want 3 recovered and 1 evicted", st)
	}
	for i, name := range filled {
		if kept := b2.Contains(name, 300); kept != (i > 0) {
			t.Errorf("entry filled %d of 3 kept: %v", i+1, kept)
		}
	}
}
