package pcr_test

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/pcr"
)

// sharedBound is the most bytes a buffer that several delivered streams
// share may hold (core's maxSharedStreams).
const sharedBound = 1 << 20

// readShape is one shape a record read takes, over a dataset opened
// tierless: a whole prefix, a sparse gather from local files, or the same
// selection pushed down to a server.
type readShape struct {
	name string
	read func(t *testing.T, rec int) []pcr.Sample
}

// readShapes opens dir for each read shape. The sparse shapes deliver what
// pred selects; it must select a proper subset of every record read, or
// the plan reads the whole prefix instead.
func readShapes(t *testing.T, dir string, pred pcr.Predicate) []readShape {
	t.Helper()
	_, ts := startServer(t, dir, nil)
	local, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	remote, err := pcr.OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	filtered := func(ds *pcr.Dataset) func(*testing.T, int) []pcr.Sample {
		return func(t *testing.T, rec int) []pcr.Sample {
			samples, _, avoided, err := ds.ReadRecordFiltered(rec, pcr.Full, pred)
			if err != nil {
				t.Fatal(err)
			}
			if avoided == 0 {
				t.Fatalf("record %d: the filter selects all of it or none, so the read is not sparse", rec)
			}
			return samples
		}
	}
	return []readShape{
		{"whole prefix", func(t *testing.T, rec int) []pcr.Sample {
			samples, err := local.ReadRecordEncoded(rec, pcr.Full)
			if err != nil {
				t.Fatal(err)
			}
			return samples
		}},
		{"local gather", filtered(local)},
		{"remote pushdown", filtered(remote)},
	}
}

// firstHalf selects the first half of each record's samples in recs, by
// ID: slices that lie end to end in each group, so a sparse read of them
// moves as many ranges whatever the record's size.
func firstHalf(t *testing.T, dir string, recs ...int) pcr.Predicate {
	t.Helper()
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	pred := pcr.IDRange(1, 0) // selects nothing
	for _, rec := range recs {
		samples, err := ds.ReadRecordEncoded(rec, pcr.Full)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples[:len(samples)/2] {
			pred = pcr.Or(pred, pcr.IDRange(s.ID, s.ID))
		}
	}
	return pred
}

// sharedRuns splits delivered samples, in delivery order, into the runs
// whose JPEGs lie end to end in memory: the streams that share a buffer.
func sharedRuns(samples []pcr.Sample) [][]pcr.Sample {
	var runs [][]pcr.Sample
	for i, s := range samples {
		if i > 0 {
			prev := samples[i-1].JPEG
			if uintptr(unsafe.Pointer(unsafe.SliceData(prev)))+uintptr(len(prev)) == uintptr(unsafe.Pointer(unsafe.SliceData(s.JPEG))) {
				runs[len(runs)-1] = append(runs[len(runs)-1], s)
				continue
			}
		}
		runs = append(runs, []pcr.Sample{s})
	}
	return runs
}

// TestSplicedStreamsNeverOverlap: the samples of one read share a buffer,
// yet appending to one sample's JPEG never changes another's, whichever
// shape the read takes.
func TestSplicedStreamsNeverOverlap(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	for _, sh := range readShapes(t, dir, firstHalf(t, dir, 0)) {
		samples := sh.read(t, 0)
		if runs := sharedRuns(samples); len(runs) != 1 {
			t.Errorf("%s: %d samples lie in %d buffers, want one", sh.name, len(samples), len(runs))
		}
		want := make([][]byte, len(samples))
		for i, s := range samples {
			want[i] = bytes.Clone(s.JPEG)
		}
		for i := range samples {
			_ = append(samples[i].JPEG, 0xFF, 0xD9, 0xAA)
			for j, s := range samples {
				if !bytes.Equal(s.JPEG, want[j]) {
					t.Fatalf("%s: appending to sample %d's JPEG changed sample %d's", sh.name, i, j)
				}
			}
		}
	}
}

// TestSplicedStreamsSamplesExactlySized: the samples a read returns are a
// slice exactly as long as what it delivers, whichever shape the read
// takes; a sparse read reserves no room for the samples it does not select.
func TestSplicedStreamsSamplesExactlySized(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	for _, sh := range readShapes(t, dir, firstHalf(t, dir, 0)) {
		if samples := sh.read(t, 0); cap(samples) != len(samples) {
			t.Errorf("%s: %d samples returned in room for %d", sh.name, len(samples), cap(samples))
		}
	}
}

// TestSplicedStreamsAllocationsFlat: a record read allocates as often for
// 64 samples as for 32, whichever shape it takes; a buffer per delivered
// sample would add one allocation for each of the 16 or 32 more samples
// delivered. The slack is the loopback HTTP exchange's jitter (it reads
// one allocation more or less from pass to pass); each size takes the least
// of three passes, since under the race detector a pass now and then reads
// a few more.
func TestSplicedStreamsAllocationsFlat(t *testing.T) {
	const allocSlack = 2
	allocs := make(map[string][]float64)
	for _, per := range []int{32, 64} {
		dir := t.TempDir()
		if n, err := pcr.Synthesize(dir, "cars", 0.4, 1, pcr.WithImagesPerRecord(per)); err != nil || n < per {
			t.Fatalf("synthesized %d images (%v), want a whole record of %d", n, err, per)
		}
		for _, sh := range readShapes(t, dir, firstHalf(t, dir, 0)) {
			least := math.Inf(1)
			for range 3 {
				least = min(least, testing.AllocsPerRun(20, func() {
					if got := len(sh.read(t, 0)); got != per && got != per/2 {
						t.Fatalf("%s: read delivered %d samples of %d", sh.name, got, per)
					}
				}))
			}
			allocs[sh.name] = append(allocs[sh.name], least)
		}
	}
	for name, a := range allocs {
		t.Logf("%s: %.0f allocations for 32 samples, %.0f for 64", name, a[0], a[1])
		if a[1] > a[0]+allocSlack {
			t.Errorf("%s: a read of 64 samples makes %.0f allocations, of 32 samples %.0f; want at most %d more", name, a[1], a[0], allocSlack)
		}
	}
}

// TestSplicedStreamsBoundedBuffers: streams share a buffer only up to the
// bound, and a stream longer than it gets a buffer of its own, whichever
// shape the read takes. The record holds six images of about 150 KB around
// one of about 1.3 MB (noise at JPEG quality 100 does not compress).
func TestSplicedStreamsBoundedBuffers(t *testing.T) {
	dir := t.TempDir()
	w, err := pcr.Create(dir, pcr.WithImagesPerRecord(7), pcr.WithJPEGQuality(100))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := range 7 {
		side := 320
		if i == 3 {
			side = 960
		}
		img := image.NewRGBA(image.Rect(0, 0, side, side))
		for p := range img.Pix {
			img.Pix[p] = uint8(rng.Intn(256))
		}
		img.Set(0, 0, color.RGBA{A: 255})
		if err := w.Append(pcr.Sample{ID: int64(i), Label: int64(i % 2), Image: img}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The big image and three of the small ones.
	pred := pcr.Or(pcr.LabelIn(0), pcr.IDRange(3, 3))
	for _, sh := range readShapes(t, dir, pred) {
		samples := sh.read(t, 0)
		var total, longest int
		for _, s := range samples {
			total += len(s.JPEG)
			longest = max(longest, len(s.JPEG))
		}
		if total <= sharedBound || longest <= sharedBound {
			t.Fatalf("%s: streams total %d bytes, the longest %d; the test needs both past %d", sh.name, total, longest, sharedBound)
		}
		shared := false
		for _, run := range sharedRuns(samples) {
			size := 0
			for _, s := range run {
				size += len(s.JPEG)
			}
			// A run of several streams within the bound holds none past it.
			if len(run) > 1 {
				shared = true
				if size > sharedBound {
					t.Errorf("%s: %d streams share a buffer of %d bytes, past the bound %d", sh.name, len(run), size, sharedBound)
				}
			}
		}
		if !shared {
			t.Errorf("%s: no two of %d streams share a buffer", sh.name, len(samples))
		}
	}
}
