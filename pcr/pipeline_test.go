package pcr_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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
	ds.WrapBackend(func(inner core.Backend) core.Backend {
		hb := hookedBackend{Backend: inner, before: before, after: after}
		if sr, ok := inner.(core.SampleReader); ok {
			return &hookedSampleBackend{hookedBackend: hb, sr: sr}
		}
		return &hb
	})
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
	batches, _, err := l.ProbeBatches(ctx, pcr.Full, 2)
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
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
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
			var reads atomic.Int32
			hook(ds, func(name string) error {
				if reads.Add(1); name != recordName(0) {
					<-release
				}
				return nil
			}, nil)
			l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithShuffleWindow(1))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			var stopped atomic.Int64 // when the epoch was told to stop, in Unix ns
			var got error
			batches := 0
			for _, err := range l.Epoch(ctx, 0) {
				if err != nil {
					got = err
					break
				}
				batches++
				if tc.stop == nil {
					stopped.Store(time.Now().UnixNano())
					break
				}
				// The second record's read is blocked: the epoch is now
				// waiting on the store, and has to be stopped from outside.
				go func() {
					time.Sleep(5 * time.Millisecond)
					stopped.Store(time.Now().UnixNano())
					tc.stop(cancel, ds)
				}()
			}
			if took := time.Since(time.Unix(0, stopped.Load())); took > 100*time.Millisecond {
				t.Errorf("epoch returned %v after it was stopped", took)
			}
			if batches != 1 || !errors.Is(got, tc.want) {
				t.Fatalf("epoch gave %d batches and error %v, want 1 and %v", batches, got, tc.want)
			}
			if n := reads.Load(); n < 2 || int(n) > 1+pcr.ReadAhead {
				t.Errorf("%d reads were issued, want the one delivered and up to %d blocked", n, pcr.ReadAhead)
			}

			close(release)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, %d before the epoch:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
