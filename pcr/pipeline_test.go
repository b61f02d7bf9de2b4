package pcr_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"image"
	"iter"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/pcr"
)

// Stores that misbehave on purpose, put under a dataset with WrapBackend.
// Each forwards ReadSamples only when the store beneath has it, so a local
// dataset keeps reading sparse ranges and a remote one keeps pushing down.

type hookedBackend struct {
	core.Backend
	before func(name string) error // runs ahead of every read; an error fails it
	after  func()
}

func (b *hookedBackend) ReadRange(name string, off, n int64) ([]byte, error) {
	if err := b.before(name); err != nil {
		return nil, err
	}
	if b.after != nil {
		defer b.after()
	}
	return b.Backend.ReadRange(name, off, n)
}

type hookedSampleBackend struct {
	hookedBackend
	sr core.SampleReader
}

func (b *hookedSampleBackend) ReadSamples(name string, group int, sel []bool) ([]byte, error) {
	if err := b.before(name); err != nil {
		return nil, err
	}
	if b.after != nil {
		defer b.after()
	}
	return b.sr.ReadSamples(name, group, sel)
}

// hook puts before and after around every read of ds.
func hook(ds *pcr.Dataset, before func(name string) error, after func()) {
	ds.WrapBackend(hooked(before, after))
}

// hooked wraps a backend in before and after.
func hooked(before func(name string) error, after func()) func(core.Backend) core.Backend {
	return func(inner core.Backend) core.Backend {
		hb := hookedBackend{Backend: inner, before: before, after: after}
		if sr, ok := inner.(core.SampleReader); ok {
			return &hookedSampleBackend{hookedBackend: hb, sr: sr}
		}
		return &hb
	}
}

// delayReads makes every read of ds take a seeded 0–2 ms longer, so reads
// issued in order complete out of order.
func delayReads(ds *pcr.Dataset, seed int64) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	hook(ds, func(string) error {
		mu.Lock()
		d := time.Duration(rng.Intn(2000)) * time.Microsecond
		mu.Unlock()
		time.Sleep(d)
		return nil
	}, nil)
}

// readCounter counts the reads of a dataset: started, in flight now, and the
// most ever in flight at once.
type readCounter struct {
	mu                    sync.Mutex
	started, inFlight, hi int
	names                 map[string]int
}

func countReads(ds *pcr.Dataset) *readCounter {
	c := &readCounter{names: map[string]int{}}
	hook(ds, func(name string) error {
		c.mu.Lock()
		c.started++
		c.names[name]++
		c.inFlight++
		c.hi = max(c.hi, c.inFlight)
		c.mu.Unlock()
		time.Sleep(200 * time.Microsecond) // long enough for reads to overlap
		return nil
	}, func() {
		c.mu.Lock()
		c.inFlight--
		c.mu.Unlock()
	})
	return c
}

func (c *readCounter) snapshot() (started, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started, c.hi
}

// TestPipelineBounded: over a counting store, an epoch never has more than
// ReadAhead reads in flight, never has read more than ReadAhead records
// beyond those the consumer has taken, reads nothing inside a resume
// prefix, and a probe reads exactly the records its batches hold.
func TestPipelineBounded(t *testing.T) {
	const perRecord = 4
	dir, n := synthDir(t, pcr.WithImagesPerRecord(perRecord))
	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumRecords() < 2*pcr.ReadAhead {
		t.Fatalf("%d records cannot show a read-ahead of %d", ds.NumRecords(), pcr.ReadAhead)
	}
	counter := countReads(ds)
	ctx := context.Background()

	// One batch per record, so after batch k the consumer has taken exactly
	// k records.
	opts := []pcr.LoaderOption{pcr.WithBatchSize(perRecord), pcr.WithLoaderSeed(3), pcr.WithShuffleWindow(4)}
	l, err := pcr.NewLoader(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	taken := 0
	for _, err := range l.Epoch(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
		taken++
		if started, _ := counter.snapshot(); started-taken > pcr.ReadAhead {
			t.Fatalf("after batch %d, %d records read: more than %d ahead of the consumer", taken, started, pcr.ReadAhead)
		}
		time.Sleep(100 * time.Microsecond) // a consumer slow enough to be run ahead of
	}
	started, hi := counter.snapshot()
	if started != ds.NumRecords() || taken != (n+perRecord-1)/perRecord {
		t.Fatalf("epoch read %d records in %d batches, dataset has %d", started, taken, ds.NumRecords())
	}
	if hi > pcr.ReadAhead {
		t.Fatalf("%d reads in flight at once, bound is %d", hi, pcr.ReadAhead)
	}
	if hi < 2 {
		t.Errorf("never more than %d read in flight: nothing was read ahead", hi)
	}

	// Resume three batches in: the three records before that are not read.
	const resumeAt = 3
	resumed, err := pcr.NewLoader(ds, append(opts, pcr.WithResume(pcr.Checkpoint{
		Epoch: 0, Batch: resumeAt, Seed: 3, BatchSize: perRecord, Window: 4, Shards: 1}))...)
	if err != nil {
		t.Fatal(err)
	}
	clear(counter.names)
	for _, err := range resumed.Epoch(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	order := l.EpochOrder(0)
	for k, rec := range order {
		name := recordName(rec)
		if reads := counter.names[name]; (k < resumeAt && reads != 0) || (k >= resumeAt && reads != 1) {
			t.Errorf("record %d, visited %d-th, resumed at %d: read %d times", rec, k, resumeAt, reads)
		}
	}

	// A probe reads the records its batches are filled from and stops.
	recordOf := recordOfSample(t, ds)
	before, _ := counter.snapshot()
	batches, _, err := l.Probe().Batches(ctx, pcr.Full, 2)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := counter.snapshot()
	probed := map[int]bool{}
	for _, b := range batches {
		for _, s := range b.Samples {
			probed[recordOf[s.ID]] = true
		}
	}
	if len(batches) != 2 || after-before != len(probed) {
		t.Fatalf("probe returned %d batches from %d records with %d reads", len(batches), len(probed), after-before)
	}
}

// recordName is the object a PCR dataset stores record i in.
func recordName(i int) string { return fmt.Sprintf("record-%05d.pcr", i) }

// recordOfSample maps every sample ID of ds to the record that holds it.
func recordOfSample(t *testing.T, ds *pcr.Dataset) map[int64]int {
	t.Helper()
	recordOf := map[int64]int{}
	for rec := 0; rec < ds.NumRecords(); rec++ {
		samples, err := ds.ReadRecordEncoded(rec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			recordOf[s.ID] = rec
		}
	}
	return recordOf
}

// TestPipelineCancellable: with the store blocked mid-epoch, cancelling the
// context, closing the dataset and breaking out each end the epoch within
// 100 ms with the right error, and once the store lets go no goroutine is
// left behind.
func TestPipelineCancellable(t *testing.T) {
	pipelineCancellable(t, func(ctx context.Context, ds *pcr.Dataset) iter.Seq2[int, error] {
		l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithShuffleWindow(1))
		if err != nil {
			t.Fatal(err)
		}
		return func(yield func(int, error) bool) {
			for b, err := range l.Epoch(ctx, 0) {
				if !yield(len(b.Samples), err) {
					return
				}
			}
		}
	})
}

// TestPipelineScanEncodedCancellable is the same over an encoded scan, plain
// and filtered: the fetch stage alone stops as promptly and leaves as little
// behind.
func TestPipelineScanEncodedCancellable(t *testing.T) {
	for name, opts := range map[string][]pcr.ScanOption{
		"plain":    nil,
		"filtered": {pcr.WithFilter(pcr.IDRange(0, 1<<40))}, // every sample, through the filtered read
	} {
		t.Run(name, func(t *testing.T) {
			pipelineCancellable(t, func(ctx context.Context, ds *pcr.Dataset) iter.Seq2[int, error] {
				return func(yield func(int, error) bool) {
					for _, err := range ds.ScanEncoded(ctx, pcr.Full, opts...) {
						if !yield(1, err) {
							return
						}
					}
				}
			})
		})
	}
}

// pipelineCancellable runs stream — which reports how many samples each of
// its deliveries holds — over a dataset of four-image records whose store
// lets the first record's read through and blocks every other, and stops it
// each way once that record has been delivered.
func pipelineCancellable(t *testing.T, stream func(ctx context.Context, ds *pcr.Dataset) iter.Seq2[int, error]) {
	const perRecord = 4
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(perRecord))
	for _, tc := range []struct {
		name string
		stop func(cancel context.CancelFunc, ds *pcr.Dataset)
		want error
	}{
		{"cancel", func(cancel context.CancelFunc, _ *pcr.Dataset) { cancel() }, context.Canceled},
		{"close", func(_ context.CancelFunc, ds *pcr.Dataset) { ds.Close() }, pcr.ErrClosed},
		{"break", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ds, err := pcr.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			// The read of the first record visited goes through; every
			// other blocks until release is closed.
			release := make(chan struct{})
			second := make(chan struct{}) // closed when the second read reaches the store
			var reads atomic.Int32
			hook(ds, func(name string) error {
				if reads.Add(1) == 2 {
					close(second)
				}
				if name != recordName(0) {
					<-release
				}
				return nil
			}, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			var stopped atomic.Int64 // when the stream was told to stop, in Unix ns
			var got error
			delivered := 0
			for n, err := range stream(ctx, ds) {
				if err != nil {
					got = err
					break
				}
				if delivered += n; delivered < perRecord {
					continue
				}
				if tc.stop == nil {
					// Break once the next read has reached the store: the
					// read-ahead issues it while the consumer holds this
					// record, but on a goroutine of its own, so how soon is
					// up to the scheduler.
					select {
					case <-second:
					case <-time.After(time.Second):
					}
					stopped.Store(time.Now().UnixNano())
					break
				}
				// The second record's read is blocked: the stream is now
				// waiting on the store, and has to be stopped from outside.
				go func() {
					time.Sleep(5 * time.Millisecond)
					stopped.Store(time.Now().UnixNano())
					tc.stop(cancel, ds)
				}()
			}
			if took := time.Since(time.Unix(0, stopped.Load())); took > 100*time.Millisecond {
				t.Errorf("stream returned %v after it was stopped", took)
			}
			if delivered != perRecord || !errors.Is(got, tc.want) {
				t.Fatalf("stream gave %d samples and error %v, want %d and %v", delivered, got, perRecord, tc.want)
			}
			if n := reads.Load(); n < 2 || int(n) > 1+pcr.ReadAhead {
				t.Errorf("%d reads were issued, want the one delivered and up to %d blocked", n, pcr.ReadAhead)
			}

			close(release)
			waitGoroutines(t, baseline)
		})
	}
}

// waitGoroutines fails t unless the goroutine count falls back to baseline
// within five seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the stream:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutinesIn returns the IDs of the goroutines whose stacks hold any of
// frames.
func goroutinesIn(frames ...string) map[string]bool {
	buf := make([]byte, 1<<20)
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, f := range frames {
			if strings.Contains(g, f) {
				id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
				ids[id] = true
			}
		}
	}
	return ids
}

// TestPipelineFetchWorkers: a scan's record reads run on at most ReadAhead
// goroutines, however many records it reads, and none is left once it
// ends. The store holds every read until the test lets one go, and while
// reads are held the goroutines in readRecord are found by their stacks:
// never more than ReadAhead at once, nor over a scan of many times more
// records. Once the scan ends — run to the end, broken off, cancelled or
// closed — and the held reads are let go, no goroutine of the pipeline is
// left.
func TestPipelineFetchWorkers(t *testing.T) {
	const perRecord = 2
	dir, n := synthDir(t, pcr.WithImagesPerRecord(perRecord))
	records := (n + perRecord - 1) / perRecord
	if records < 4*pcr.ReadAhead {
		t.Fatalf("%d records; the test needs many more than %d", records, pcr.ReadAhead)
	}
	const stopAt = 5 // records delivered before a scan is stopped
	for _, tc := range []struct {
		name string
		stop func(cancel context.CancelFunc, ds *pcr.Dataset) // nil: break
		want error
		all  bool
	}{
		{"end", nil, nil, true},
		{"break", nil, nil, false},
		{"cancel", func(cancel context.CancelFunc, _ *pcr.Dataset) { cancel() }, context.Canceled, false},
		{"close", func(_ context.CancelFunc, ds *pcr.Dataset) { ds.Close() }, pcr.ErrClosed, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := pcr.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			arrived := make(chan struct{}, records)
			release := make(chan struct{})
			hook(ds, func(string) error {
				arrived <- struct{}{}
				<-release
				return nil
			}, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type result struct {
				samples int
				err     error
			}
			done := make(chan result, 1)
			go func() {
				var r result
				for _, err := range ds.ScanEncoded(ctx, pcr.Full) {
					if err != nil {
						r.err = err
						break
					}
					if r.samples++; !tc.all && r.samples == stopAt*perRecord {
						if tc.stop == nil {
							break
						}
						tc.stop(cancel, ds)
					}
				}
				done <- r
			}()

			readers := make(map[string]bool)
			var got result
			for finished := false; !finished; {
				select {
				case <-arrived:
					now := goroutinesIn("repro/pcr.(*pcrReader).readRecord(")
					if len(now) > pcr.ReadAhead {
						t.Fatalf("%d goroutines in readRecord at once, want at most %d", len(now), pcr.ReadAhead)
					}
					for id := range now {
						readers[id] = true
					}
					release <- struct{}{}
				case got = <-done:
					finished = true
				case <-time.After(5 * time.Second):
					t.Fatal("the scan stalled")
				}
			}
			if !errors.Is(got.err, tc.want) || tc.all && got.samples != n || !tc.all && got.samples != stopAt*perRecord {
				t.Fatalf("scan delivered %d samples and ended with %v; want %d and %v", got.samples, got.err, n, tc.want)
			}
			if len(readers) > pcr.ReadAhead {
				t.Errorf("%d goroutines read records, want at most %d", len(readers), pcr.ReadAhead)
			}
			close(release)
			for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
				left := goroutinesIn("repro/pcr.(*pipeline).", "repro/pcr.(*Dataset).pipeline", "repro/pcr.(*pcrReader).readRecord(")
				if len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines of the pipeline left after the scan ended", len(left))
				}
			}
		})
	}
}

// TestPipelineScanEncodedEveryFormatStops: in every format an encoded scan,
// which the pipeline runs for all of them, stopped by Close or by
// cancelling its context ends with ErrClosed or ctx.Err() within the
// delivery it was in, yielding only whole samples, and one left by an
// early break ends there; neither leaves a goroutine behind.
func TestPipelineScanEncodedEveryFormatStops(t *testing.T) {
	const stopAt = 3
	for _, f := range pcr.Formats() {
		dir := t.TempDir()
		n, err := pcr.Synthesize(dir, "cars", 0.1, 1, pcr.WithFormat(f), pcr.WithImagesPerRecord(4))
		if err != nil {
			t.Fatal(err)
		}
		if n < stopAt+pcr.RunLen {
			t.Fatalf("%s: %d images, too few to stop a scan mid-stream", f.Name(), n)
		}
		for _, tc := range []struct {
			name string
			stop func(cancel context.CancelFunc, ds *pcr.Dataset)
			want error
		}{
			{"close", func(_ context.CancelFunc, ds *pcr.Dataset) { ds.Close() }, pcr.ErrClosed},
			{"cancel", func(cancel context.CancelFunc, _ *pcr.Dataset) { cancel() }, context.Canceled},
			{"break", nil, nil},
		} {
			t.Run(f.Name()+"/"+tc.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ds, err := pcr.Open(dir, pcr.WithFormat(f))
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				yielded := 0
				var got error
				for s, err := range ds.ScanEncoded(ctx, pcr.Full) {
					if err != nil {
						got = err
						break
					}
					if len(s.JPEG) == 0 {
						t.Fatalf("sample %d yielded with no JPEG bytes", s.ID)
					}
					if yielded++; yielded == stopAt {
						if tc.stop == nil {
							break
						}
						tc.stop(cancel, ds)
					}
				}
				if !errors.Is(got, tc.want) {
					t.Fatalf("scan ended with %v, want %v", got, tc.want)
				}
				// A delivery already handed over is yielded to its end: a
				// record, or a run of a baseline's stream.
				if yielded < stopAt || yielded >= stopAt+pcr.RunLen || tc.stop == nil && yielded != stopAt {
					t.Fatalf("%d samples yielded, stopped after %d", yielded, stopAt)
				}
				ds.Close()
				waitGoroutines(t, baseline)
			})
		}
	}
}

// TestPipelineRecordReadPanicIsAnError: a store whose read panics fails every
// record read — ReadRecordEncoded, which runs it on the caller's goroutine,
// as well as ReadRecord, Scan and ScanEncoded, which run it on the
// pipeline's — with an error, not a crash, and the dataset reads on once
// the store does: tierless, and with the store beneath a memory tier, a
// disk tier, or both, where the tier's fill is what panics.
func TestPipelineRecordReadPanicIsAnError(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	for _, tiers := range []struct {
		name string
		opts []pcr.Option
	}{
		{"tierless", nil},
		{"memory", []pcr.Option{pcr.WithCacheBytes(1 << 20)}},
		{"disk", []pcr.Option{pcr.WithDiskCache(t.TempDir(), 64<<20)}},
		{"both", []pcr.Option{pcr.WithCacheBytes(1 << 20), pcr.WithDiskCache(t.TempDir(), 64<<20)}},
	} {
		t.Run(tiers.name, func(t *testing.T) {
			var panicking atomic.Bool
			panicking.Store(true)
			ds, err := pcr.OpenWrapped(dir, hooked(func(string) error {
				if panicking.Load() {
					panic("store fault")
				}
				return nil
			}, nil), tiers.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			ctx := context.Background()
			for _, read := range []struct {
				name string
				run  func() error
			}{
				{"ReadRecordEncoded", func() error { _, err := ds.ReadRecordEncoded(0, pcr.Full); return err }},
				{"ReadRecord", func() error { _, err := ds.ReadRecord(ctx, 0, pcr.Full); return err }},
				{"Scan", func() error { return firstErr(ds.Scan(ctx, pcr.Full)) }},
				{"ScanEncoded", func() error { return firstErr(ds.ScanEncoded(ctx, pcr.Full)) }},
			} {
				if err := read.run(); err == nil || !strings.Contains(err.Error(), "store fault") {
					t.Errorf("%s over a panicking store: %v, want the panic as an error", read.name, err)
				}
			}
			panicking.Store(false)
			want, err := pcr.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer want.Close()
			for range 2 { // the fill, then a read the tiers serve
				samples, err := ds.ReadRecordEncoded(0, pcr.Full)
				ref, _ := want.ReadRecordEncoded(0, pcr.Full)
				if err != nil || len(samples) != 4 {
					t.Fatalf("ReadRecordEncoded once the store recovers: %d samples, %v", len(samples), err)
				}
				for i := range samples {
					if !bytes.Equal(samples[i].JPEG, ref[i].JPEG) {
						t.Fatalf("sample %d once the store recovers differs from the store's", i)
					}
				}
			}
		})
	}
}

// referenceScan is ScanEncoded written down serially, one record at a time
// from ReadRecordEncoded and Predicate.Matches, with the price a filtered
// scan owes: a record no sample of which matches is skipped and its prefix
// avoided, and each other costs at most its whole prefix — exactly that
// through cache tiers, which is what Bytes counts.
func referenceScan(t *testing.T, ref *pcr.Dataset, q int, pred pcr.Predicate) ([]sampleKey, pcr.FilterPlan) {
	t.Helper()
	var keys []sampleKey
	price := pcr.FilterPlan{Records: ref.NumRecords()}
	for rec := 0; rec < ref.NumRecords(); rec++ {
		samples, err := ref.ReadRecordEncoded(rec, q)
		if err != nil {
			t.Fatal(err)
		}
		full, err := ref.RecordPrefixLen(rec, q)
		if err != nil {
			t.Fatal(err)
		}
		selected := 0
		for _, s := range samples {
			if pred == nil || pred.Matches(s.ID, s.Label) {
				keys = append(keys, sampleKey{s.ID, s.Label, sha256.Sum256(s.JPEG)})
				selected++
			}
		}
		price.Selected += selected
		price.Total += len(samples)
		price.FullBytes += full
		if selected == 0 {
			price.RecordsSkipped++
		} else {
			price.Bytes += full
		}
	}
	return keys, price
}

// TestPipelineScanEncodedEquivalence: plain and filtered, locally and over
// the wire, bare and behind either or both cache tiers, with reads completing
// out of order, ScanEncoded yields exactly the samples of the serial
// reference, in its order, and moves what the reference prices, by the
// count of the layer beneath pcr: a filtered scan PlanFilter's price, which
// agrees with the reference's, and a plain one SizeAtQuality.
func TestPipelineScanEncodedEquivalence(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(3), pcr.WithScanGroups(4))
	srv, ts := startServer(t, dir, nil)
	ref, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	preds := []pcr.Predicate{nil, pcr.LabelIn(0, 1, 2), pcr.LabelIn(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23), pcr.IDRange(7, 8)}
	rng := rand.New(rand.NewSource(22))
	skippedSome := false
	for _, remote := range []bool{false, true} {
		for tiers := 0; tiers < 4; tiers++ {
			for _, pred := range preds {
				q := 1 + rng.Intn(4)
				var opts []pcr.Option
				if tiers&1 != 0 {
					opts = append(opts, pcr.WithCacheBytes(1<<20))
				}
				if tiers&2 != 0 {
					opts = append(opts, pcr.WithDiskCache(t.TempDir(), 64<<20))
				}
				var ds *pcr.Dataset
				var below *serve.Server
				if remote {
					ds, err = pcr.OpenRemote(ts.URL, opts...)
					below = srv
				} else {
					ds, err = pcr.Open(dir, opts...)
				}
				if err != nil {
					t.Fatal(err)
				}
				delayReads(ds, rng.Int63())
				moved := movedBelow(ds, below)
				var scanOpts []pcr.ScanOption
				if pred != nil {
					scanOpts = []pcr.ScanOption{pcr.WithFilter(pred)}
				}
				var got []sampleKey
				before := moved()
				for s, err := range ds.ScanEncoded(context.Background(), q, scanOpts...) {
					if err != nil {
						t.Fatal(err)
					}
					if s.Image != nil {
						t.Fatalf("sample %d of an encoded scan is decoded", s.ID)
					}
					got = append(got, sampleKey{s.ID, s.Label, sha256.Sum256(s.JPEG)})
				}
				movedBytes := moved() - before
				var plan pcr.FilterPlan
				if pred != nil {
					if plan, err = ds.PlanFilter(pred, q); err != nil {
						t.Fatal(err)
					}
				}
				ds.Close()
				want, price := referenceScan(t, ref, q, pred)
				name := fmt.Sprintf("remote=%v tiers=%02b q=%d filter=%v", remote, tiers, q, pred)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %d samples differ from the reference's %d", name, len(got), len(want))
				}
				if pred == nil {
					if movedBytes != price.FullBytes {
						t.Errorf("%s: moved %d bytes, want the whole %d", name, movedBytes, price.FullBytes)
					}
					continue
				}
				// Without tiers the plan reads sparse ranges, which the
				// reference cannot price: no more than its whole prefixes.
				if tiers == 0 && plan.Bytes <= price.Bytes {
					price.Bytes = plan.Bytes
				}
				if plan != price {
					t.Errorf("%s:\nPlanFilter %+v\n reference %+v", name, plan, price)
				}
				samePrice(t, name, plan, len(got), movedBytes)
				skippedSome = skippedSome || price.RecordsSkipped > 0
			}
		}
	}
	if !skippedSome {
		t.Error("no filter left a record empty: the skip path was not exercised")
	}
}

// TestPipelineScanRangesTwice: a Scan or ScanEncoded result is an iterator
// like any other — ranged twice, one after the other or at once, every range
// yields the whole scan.
func TestPipelineScanRangesTwice(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(3))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	collect := func(seq iter.Seq2[pcr.Sample, error]) ([]sampleKey, error) {
		var keys []sampleKey
		for s, err := range seq {
			if err != nil {
				return nil, err
			}
			keys = append(keys, sampleKey{s.ID, s.Label, sha256.Sum256(s.JPEG)})
		}
		return keys, nil
	}
	for _, tc := range []struct {
		name string
		seq  iter.Seq2[pcr.Sample, error]
	}{
		{"encoded", ds.ScanEncoded(ctx, 2)},
		{"encoded filtered", ds.ScanEncoded(ctx, 2, pcr.WithFilter(pcr.LabelIn(0, 1, 2)))},
		{"decoded", ds.Scan(ctx, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, err := collect(tc.seq)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 {
				t.Fatal("the first range yielded nothing")
			}
			var wg sync.WaitGroup
			got := make([][]sampleKey, 3)
			errs := make([]error, 3)
			got[0], errs[0] = collect(tc.seq) // the second, alone
			for i := 1; i < 3; i++ {          // the third and fourth, at once
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = collect(tc.seq)
				}()
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatalf("range %d: %v", i+2, errs[i])
				}
				if !reflect.DeepEqual(got[i], first) {
					t.Errorf("range %d yielded %d samples, the first %d", i+2, len(got[i]), len(first))
				}
			}
		})
	}
}

// TestPipelineScanEncodedBounded: over a counting store an encoded scan has
// reads in flight ahead of its consumer, never more than ReadAhead of them
// and never more than ReadAhead records beyond those handed over; filtered,
// it reads nothing of a record the side index excludes.
func TestPipelineScanEncodedBounded(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumRecords() < 2*pcr.ReadAhead {
		t.Fatalf("%d records cannot show a read-ahead of %d", ds.NumRecords(), pcr.ReadAhead)
	}
	recordOf := recordOfSample(t, ds)
	counter := countReads(ds)
	ctx := context.Background()

	// A plain scan reads each record in one piece, so reads count records.
	last := -1
	for s, err := range ds.ScanEncoded(ctx, pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
		if rec := recordOf[s.ID]; rec != last {
			last = rec
			if started, _ := counter.snapshot(); started-(rec+1) > pcr.ReadAhead {
				t.Fatalf("record %d handed over, %d records read: more than %d ahead of the consumer", rec, started, pcr.ReadAhead)
			}
			time.Sleep(100 * time.Microsecond) // a consumer slow enough to be run ahead of
		}
	}
	if started, hi := counter.snapshot(); started != ds.NumRecords() || hi > pcr.ReadAhead || hi < 2 {
		t.Fatalf("scan of %d records made %d reads, at most %d at once; want one each and 2 to %d at once",
			ds.NumRecords(), started, hi, pcr.ReadAhead)
	}

	// Filtered down to the first sample of every other record, the records
	// in between are never touched.
	pred := pcr.LabelIn() // nothing
	for rec := 0; rec < ds.NumRecords(); rec += 2 {
		samples, err := ds.ReadRecordEncoded(rec, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred = pcr.Or(pred, pcr.IDRange(samples[0].ID, samples[0].ID))
	}
	clear(counter.names)
	n := 0
	for _, err := range ds.ScanEncoded(ctx, pcr.Full, pcr.WithFilter(pred)) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != (ds.NumRecords()+1)/2 {
		t.Fatalf("filter selected %d samples, want one of every other of %d records", n, ds.NumRecords())
	}
	for rec := 0; rec < ds.NumRecords(); rec++ {
		if reads := counter.names[recordName(rec)]; (rec%2 == 0) != (reads > 0) {
			t.Errorf("record %d: %d reads", rec, reads)
		}
	}
	if _, hi := counter.snapshot(); hi > pcr.ReadAhead {
		t.Fatalf("%d reads in flight at once, bound is %d", hi, pcr.ReadAhead)
	}
}

// framePlanes are an image's sample planes.
func framePlanes(img image.Image) [][]byte {
	switch img := img.(type) {
	case *image.YCbCr:
		return [][]byte{img.Y, img.Cb, img.Cr}
	case *image.Gray:
		return [][]byte{img.Pix}
	}
	return nil
}

// frameSum hashes an image's planes, margins included.
func frameSum(img image.Image) [32]byte {
	h := sha256.New()
	for _, p := range framePlanes(img) {
		h.Write(p)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

const poison = 0xA5

// poisoned reports whether every sample of img is poison.
func poisoned(img image.Image) bool {
	for _, p := range framePlanes(img) {
		for _, v := range p {
			if v != poison {
				return false
			}
		}
	}
	return true
}

// TestPipelineEpochRecyclesFrames holds Loader.Epoch to its frame contract,
// with every frame it hands back poisoned on the way: inside its loop body
// each image is, plane for plane, the one Scan decodes at the same quality;
// an image kept past the body does not stay what it was — the last batch's,
// which no later decode takes, reads as poison — and frames are reused. Scan,
// ReadRecord and Probe.Batches hand no frame back.
func TestPipelineEpochRecyclesFrames(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	const q = 2
	ctx := context.Background()
	want := make(map[int64][32]byte)
	for s, err := range ds.Scan(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		want[s.ID] = frameSum(s.Image)
	}
	if len(want) != n {
		t.Fatalf("Scan decoded %d of %d samples", len(want), n)
	}

	l, err := pcr.NewLoader(ds, pcr.WithQuality(q), pcr.WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	handedBack := 0
	l.OnRecycle(func(img image.Image) {
		for _, p := range framePlanes(img) {
			for i := range p {
				p[i] = poison
			}
		}
		handedBack++
	})
	type kept struct {
		img image.Image
		sum [32]byte
	}
	var keep []kept
	var last []image.Image // the final batch's
	frames := make(map[image.Image]bool)
	const epochs = 3
	for epoch := 0; epoch < epochs; epoch++ {
		for b, err := range l.Epoch(ctx, epoch) {
			if err != nil {
				t.Fatal(err)
			}
			last = last[:0]
			for _, s := range b.Samples {
				sum := frameSum(s.Image)
				if sum != want[s.ID] {
					t.Fatalf("epoch %d: sample %d differs from Scan's", epoch, s.ID)
				}
				keep = append(keep, kept{s.Image, sum})
				last = append(last, s.Image)
				frames[s.Image] = true
			}
		}
	}
	if handedBack != epochs*n {
		t.Fatalf("%d frames handed back, want %d", handedBack, epochs*n)
	}
	if len(frames) >= epochs*n {
		t.Fatalf("%d samples decoded into %d frames: none reused", epochs*n, len(frames))
	}
	for i, k := range keep {
		if frameSum(k.img) == k.sum {
			t.Fatalf("image %d, kept past its loop body, still reads as it did", i)
		}
	}
	for i, img := range last {
		if !poisoned(img) {
			t.Fatalf("image %d of the last batch, kept past its loop body, is not poison", i)
		}
	}

	// The other readers lend nothing: their images stay as decoded.
	handedBack = 0
	var others []kept
	for s, err := range ds.Scan(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, kept{s.Image, want[s.ID]})
	}
	rec, err := ds.ReadRecord(ctx, 0, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec {
		others = append(others, kept{s.Image, want[s.ID]})
	}
	batches, _, err := l.Probe().Batches(ctx, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, s := range b.Samples {
			others = append(others, kept{s.Image, want[s.ID]})
		}
	}
	if handedBack != 0 {
		t.Fatalf("Scan, ReadRecord and Probe.Batches handed back %d frames", handedBack)
	}
	for i, k := range others {
		if frameSum(k.img) != k.sum {
			t.Fatalf("image %d of Scan, ReadRecord or Probe.Batches changed after its delivery", i)
		}
	}
}

// TestPipelineEpochLendsStreams holds Loader.Epoch to its stream contract,
// with the stream buffers of every record lease given back poisoned on the
// way: inside its loop body each sample's JPEG is the one ScanEncoded
// delivers at the same quality — over whole-prefix reads, sparse filtered
// reads and a resumed epoch entered mid-record, in batches that cut records
// apart, while later reads splice into the buffers of leases given back —
// one lease goes back per record read, with its stream buffers, a JPEG kept
// past the body reads as poison once its lease is back, and buffers are
// reused across epochs. The batches of an epoch all come in one Samples
// slice, and the last, kept past its body, reads as cleared. Scan,
// ScanEncoded, ReadRecord, ReadRecordEncoded and Probe.Batches give no
// stream buffer back with a lease, and what they deliver — the slices the
// last three return included — never changes after delivery.
func TestPipelineEpochLendsStreams(t *testing.T) {
	// Twice as many records as are read ahead, so that reads splice into
	// buffers an epoch has given back while later batches are in flight.
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	// gives counts the leases given back and streams their stream buffers;
	// first is the epoch each buffer was first given back in, and reused
	// whether one was given back again in a later epoch.
	var (
		mu             sync.Mutex
		gives, streams int
		epoch          int
		first          map[*byte]int
		reused         bool
	)
	ds.OnLease(func(ev pcr.LeaseEvent) {
		if !ev.Give {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		gives++
		for _, b := range ev.Streams {
			if len(b) == 0 {
				t.Errorf("a lease went back with an empty stream buffer")
				continue
			}
			for i := range b {
				b[i] = poison
			}
			streams++
			if e, ok := first[&b[0]]; !ok {
				first[&b[0]] = epoch
			} else if e < epoch {
				reused = true
			}
		}
	})
	counted := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		g, s := gives, streams
		gives, streams = 0, 0
		return g, s
	}
	const q, batch = 2, 5
	ctx := context.Background()
	want := make(map[int64][32]byte)
	for s, err := range ds.ScanEncoded(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		want[s.ID] = sha256.Sum256(s.JPEG)
	}
	pred, err := pcr.ParseFilter("label IN (0, 1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	isPoison := func(b []byte) bool {
		return len(b) > 0 && bytes.Count(b, []byte{poison}) == len(b)
	}

	lend := func(opts ...pcr.LoaderOption) *pcr.Loader {
		t.Helper()
		l, err := pcr.NewLoader(ds, append([]pcr.LoaderOption{pcr.WithQuality(q), pcr.WithBatchSize(batch)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, tc := range []struct {
		name   string
		l      *pcr.Loader
		epochs []int
	}{
		{"whole", lend(), []int{0, 1, 2}},
		{"filtered", lend(pcr.WithLoaderFilter(pred)), []int{0, 1, 2}},
		// Resumed mid-record, at batch 3 of epoch 1, and then epoch 2 whole.
		{"resumed", lend(pcr.WithResume(pcr.Checkpoint{Epoch: 1, Batch: 3, Seed: 1, BatchSize: batch, Window: 16})), []int{1, 2}},
	} {
		mu.Lock()
		first, reused = make(map[*byte]int), false
		mu.Unlock()
		for _, e := range tc.epochs {
			mu.Lock()
			epoch = e
			mu.Unlock()
			counted()
			var last [][]byte          // the final batch's JPEGs
			var lastBatch []pcr.Sample // and its Samples
			arrays := make(map[*pcr.Sample]bool)
			delivered := 0
			for b, err := range tc.l.Epoch(ctx, e) {
				if err != nil {
					t.Fatal(err)
				}
				lastBatch = b.Samples
				arrays[unsafe.SliceData(b.Samples)] = true
				last = last[:0]
				for _, s := range b.Samples {
					if sha256.Sum256(s.JPEG) != want[s.ID] {
						t.Fatalf("%s epoch %d: sample %d's JPEG differs from ScanEncoded's inside its loop body", tc.name, e, s.ID)
					}
					if tc.name == "filtered" && !pred.Matches(s.ID, s.Label) {
						t.Fatalf("%s: sample %d escaped the filter", tc.name, s.ID)
					}
					last = append(last, s.JPEG)
					delivered++
				}
			}
			st, ok := tc.l.LastEpochStats()
			if !ok || st.Images != delivered {
				t.Fatalf("%s epoch %d: stats %+v for %d samples delivered", tc.name, e, st, delivered)
			}
			// One lease per record read goes back, with its stream buffers.
			if g, s := counted(); g != st.Records || s < g {
				t.Fatalf("%s epoch %d: %d leases given back with %d stream buffers for %d record reads", tc.name, e, g, s, st.Records)
			}
			for i, jpeg := range last {
				if !isPoison(jpeg) {
					t.Fatalf("%s epoch %d: JPEG %d of the last batch, kept past its loop body, is not poison", tc.name, e, i)
				}
			}
			if len(arrays) != 1 {
				t.Fatalf("%s epoch %d: batches came in %d Samples slices, want one", tc.name, e, len(arrays))
			}
			for i, s := range lastBatch {
				if s.ID != 0 || s.Label != 0 || s.JPEG != nil || s.Image != nil {
					t.Fatalf("%s epoch %d: sample %d of the last batch's Samples, kept past its loop body, is not cleared", tc.name, e, i)
				}
			}
		}
		mu.Lock()
		r := reused
		mu.Unlock()
		if !r {
			t.Fatalf("%s: no stream buffer given back in one epoch was given back in a later one", tc.name)
		}
	}

	// The other readers lend nothing: their leases go back without their
	// streams, which stay as delivered, with a lending epoch run after them.
	l := lend()
	counted()
	type kept struct {
		jpeg []byte
		sum  [32]byte
	}
	var others []kept
	var held [][]pcr.Sample // the slices ReadRecord, ReadRecordEncoded and Probe.Batches returned
	keep := func(samples ...pcr.Sample) {
		for _, s := range samples {
			others = append(others, kept{s.JPEG, want[s.ID]})
		}
	}
	for s, err := range ds.Scan(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		keep(s)
	}
	for s, err := range ds.ScanEncoded(ctx, q, pcr.WithFilter(pred)) {
		if err != nil {
			t.Fatal(err)
		}
		keep(s)
	}
	rec, err := ds.ReadRecord(ctx, 0, q)
	if err != nil {
		t.Fatal(err)
	}
	keep(rec...)
	held = append(held, rec)
	if rec, err = ds.ReadRecordEncoded(1, q); err != nil {
		t.Fatal(err)
	}
	keep(rec...)
	held = append(held, rec)
	batches, _, err := l.Probe().Batches(ctx, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		keep(b.Samples...)
		held = append(held, b.Samples)
	}
	if g, s := counted(); g == 0 || s != 0 {
		t.Fatalf("Scan, ScanEncoded, ReadRecord, ReadRecordEncoded and Probe.Batches gave back %d leases with %d stream buffers, want some with none", g, s)
	}
	for _, err := range l.Epoch(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, s := counted(); s == 0 {
		t.Fatal("the epoch after the other reads gave back no stream buffer")
	}
	for i, k := range others {
		if sha256.Sum256(k.jpeg) != k.sum {
			t.Fatalf("JPEG %d of Scan, ScanEncoded, ReadRecord, ReadRecordEncoded or Probe.Batches changed after its delivery", i)
		}
	}
	for i, samples := range held {
		for _, s := range samples {
			if sha256.Sum256(s.JPEG) != want[s.ID] {
				t.Fatalf("slice %d of ReadRecord, ReadRecordEncoded or Probe.Batches changed after its delivery", i)
			}
		}
	}
}

// TestPipelineEpochKeepsStreamBuffers: a record lease keeps its stream
// buffers from read to read. Over records of mixed sizes, read sparse by a
// filter, 11 epochs make few stream buffers, far under one per read: how
// many leases an epoch has out at once depends on the schedule, so that is
// held only to a bound. A lease that let go of its buffers, or a reader
// that dropped leases, makes one per read.
func TestPipelineEpochKeepsStreamBuffers(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	// made is every stream buffer a lease has gone back with, by its first
	// byte; holding it keeps the address the buffer's.
	var mu sync.Mutex
	made := make(map[*byte][]byte)
	ds.OnLease(func(ev pcr.LeaseEvent) {
		mu.Lock()
		defer mu.Unlock()
		for _, b := range ev.Streams {
			made[&b[0]] = b
		}
	})
	pred, err := pcr.ParseFilter("label IN (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)")
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int]bool)
	for i := range ds.NumRecords() {
		if ds.SelectedCount(i, pred) == 0 {
			continue
		}
		samples, _, _, err := ds.ReadRecordFiltered(i, pcr.Full, pred)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range samples {
			n += len(s.JPEG)
		}
		sizes[n] = true
	}
	if len(sizes) < 4 {
		t.Fatalf("the filtered reads deliver %d sizes of streams; the test needs them mixed", len(sizes))
	}
	const batch = 4
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(batch), pcr.WithLoaderFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for epoch := range 11 {
		for b, err := range l.Epoch(context.Background(), epoch) {
			if err != nil {
				t.Fatal(err)
			}
			delivered += len(b.Samples)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(made) > 2*(pcr.ReadAhead+batch) {
		t.Fatalf("11 epochs made %d stream buffers for %d samples", len(made), delivered)
	}
	caps := make(map[int]bool)
	for _, b := range made {
		caps[cap(b)] = true
	}
	if len(caps) < 2 {
		t.Fatalf("the stream buffers made have %d capacities; the test needs reads of mixed sizes", len(caps))
	}
}
