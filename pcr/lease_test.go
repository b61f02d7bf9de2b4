package pcr_test

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/pcr"
)

// ledger checks one dataset's record leases, from every take and give
// OnLease reports, against what holds on any schedule: no lease is taken
// while it is out or given back while it is not, none goes back before the
// loop body has returned for every sample it holds that a body received,
// a read whose caller keeps its streams gives its lease back without them,
// and after a read run to its end none is out. It asserts no reuse: each
// check holds whether or not a lease was ever taken twice.
type ledger struct {
	mu  sync.Mutex
	out map[any]bool // the leases out
	// empty counts the leases given back with no sample: those of reads
	// that failed before delivering one.
	empty int
	// owned makes a give with a stream buffer a fault: the reads hand their
	// callers their streams.
	owned bool
	// returned is the samples whose loop body has returned, and early those
	// a lease went back with before that.
	returned, early map[int64]bool
	faults          []string
}

// watchLeases puts a ledger on ds's leases; ds is read only after.
func watchLeases(ds *pcr.Dataset) *ledger {
	lg := &ledger{
		out: make(map[any]bool), returned: make(map[int64]bool), early: make(map[int64]bool),
	}
	ds.OnLease(lg.event)
	return lg
}

func (lg *ledger) fault(format string, args ...any) {
	lg.faults = append(lg.faults, fmt.Sprintf(format, args...))
}

func (lg *ledger) event(ev pcr.LeaseEvent) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if !ev.Give {
		if lg.out[ev.Lease] {
			lg.fault("a lease was taken while out")
		}
		lg.out[ev.Lease] = true
		return
	}
	if !lg.out[ev.Lease] {
		lg.fault("a lease was given back while not out")
	}
	delete(lg.out, ev.Lease)
	if len(ev.Samples) == 0 {
		lg.empty++
	}
	if lg.owned && len(ev.Streams) > 0 {
		lg.fault("a caller-owned read gave its lease back with %d stream buffers", len(ev.Streams))
	}
	for _, s := range ev.Samples {
		if !lg.returned[s.ID] {
			lg.early[s.ID] = true
		}
	}
}

// bodyReturned marks samples whose loop body has returned.
func (lg *ledger) bodyReturned(samples ...pcr.Sample) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, s := range samples {
		lg.returned[s.ID] = true
	}
}

// settle fails t with what the ledger has found since it last settled: its
// faults, each sample a lease went back with before the body that received
// it returned, and, when the reads ran to their end, each lease still out.
// A read abandoned part way drops the leases it had out, so without end
// they are forgotten. The next run starts afresh.
func (lg *ledger) settle(t *testing.T, what string, end bool) {
	t.Helper()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, f := range lg.faults {
		t.Errorf("%s: %s", what, f)
	}
	for id := range lg.early {
		if lg.returned[id] {
			t.Errorf("%s: the lease of sample %d went back before the loop body that received it returned", what, id)
		}
	}
	if end && len(lg.out) > 0 {
		t.Errorf("%s: %d leases are still out", what, len(lg.out))
	}
	clear(lg.out)
	clear(lg.returned)
	clear(lg.early)
	lg.faults = nil
}

// TestPipelineLeaseLedger runs every kind of record read under a ledger
// (see ledger) over 16 records of 2, more than are read ahead and batched:
// whole, filtered (sparse) and resumed Loader epochs in batches that cut
// records apart; Scan, ScanEncoded, ReadRecord, ReadRecordEncoded and
// Probe.Batches; and epochs and scans broken off, cancelled or closed part
// way, each followed, where the dataset is still open, by an epoch run to
// its end.
func TestPipelineLeaseLedger(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	pred, err := pcr.ParseFilter("label IN (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)")
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	ctx := context.Background()
	open := func(t *testing.T) (*pcr.Dataset, *ledger) {
		t.Helper()
		ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds, watchLeases(ds)
	}
	loader := func(t *testing.T, ds *pcr.Dataset, opts ...pcr.LoaderOption) *pcr.Loader {
		t.Helper()
		l, err := pcr.NewLoader(ds, append([]pcr.LoaderOption{pcr.WithBatchSize(batch)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// epoch runs epoch e of l, breaking off after stop batches when stop is
	// positive, and returns its error.
	epoch := func(lg *ledger, l *pcr.Loader, ctx context.Context, e, stop int) error {
		n := 0
		for b, err := range l.Epoch(ctx, e) {
			if err != nil {
				return err
			}
			lg.bodyReturned(b.Samples...)
			if n++; n == stop {
				break
			}
		}
		return nil
	}

	for _, tc := range []struct {
		name   string
		opts   []pcr.LoaderOption
		epochs []int
	}{
		{"whole", nil, []int{0, 1, 2}},
		{"filtered", []pcr.LoaderOption{pcr.WithLoaderFilter(pred)}, []int{0, 1}},
		{"resumed", []pcr.LoaderOption{pcr.WithResume(pcr.Checkpoint{Epoch: 1, Batch: 2, Seed: 1, BatchSize: batch, Window: 16})}, []int{1, 2}},
	} {
		t.Run("Epoch/"+tc.name, func(t *testing.T) {
			ds, lg := open(t)
			l := loader(t, ds, tc.opts...)
			for _, e := range tc.epochs {
				if err := epoch(lg, l, ctx, e, 0); err != nil {
					t.Fatal(err)
				}
				lg.settle(t, fmt.Sprintf("epoch %d", e), true)
			}
		})
	}

	scan := func(lg *ledger, seq iter.Seq2[pcr.Sample, error]) error {
		for s, err := range seq {
			if err != nil {
				return err
			}
			lg.bodyReturned(s)
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		read func(t *testing.T, ds *pcr.Dataset, lg *ledger) error
	}{
		{"Scan", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error { return scan(lg, ds.Scan(ctx, 2)) }},
		{"ScanEncoded", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error { return scan(lg, ds.ScanEncoded(ctx, pcr.Full)) }},
		{"ScanEncoded/filtered", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			return scan(lg, ds.ScanEncoded(ctx, pcr.Full, pcr.WithFilter(pred)))
		}},
		{"ReadRecord", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			for i := range ds.NumRecords() {
				if _, err := ds.ReadRecord(ctx, i, 2); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ReadRecordEncoded", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			for i := range ds.NumRecords() {
				if _, err := ds.ReadRecordEncoded(i, pcr.Full); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Probe.Batches", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			_, _, err := loader(t, ds).Probe().Batches(ctx, 2, 3)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, lg := open(t)
			lg.owned = true
			for pass := range 2 {
				if err := tc.read(t, ds, lg); err != nil {
					t.Fatal(err)
				}
				lg.settle(t, fmt.Sprintf("pass %d", pass), true)
			}
		})
	}

	// Cut short, each leaves what its pipeline abandons to wind down; once it
	// has, an epoch run to its end takes and gives back every lease it uses.
	for _, tc := range []struct {
		name string
		cut  func(t *testing.T, ds *pcr.Dataset, lg *ledger) error
	}{
		{"break/Epoch", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error { return epoch(lg, loader(t, ds), ctx, 0, 2) }},
		{"break/Scan", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			n := 0
			for s, err := range ds.Scan(ctx, 2) {
				if err != nil {
					return err
				}
				lg.bodyReturned(s)
				if n++; n == 3 {
					break
				}
			}
			return nil
		}},
		{"cancel/Epoch", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			n := 0
			for b, err := range loader(t, ds).Epoch(cctx, 0) {
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						return err
					}
					return nil
				}
				lg.bodyReturned(b.Samples...)
				if n++; n == 2 {
					cancel()
				}
			}
			return errors.New("the cancelled epoch ran to its end")
		}},
		{"Close/Epoch", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
			n := 0
			for b, err := range loader(t, ds).Epoch(ctx, 0) {
				if err != nil {
					if !errors.Is(err, pcr.ErrClosed) {
						return err
					}
					return nil
				}
				lg.bodyReturned(b.Samples...)
				if n++; n == 2 {
					ds.Close()
				}
			}
			return errors.New("the closed epoch ran to its end")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, lg := open(t)
			baseline := runtime.NumGoroutine()
			if err := tc.cut(t, ds, lg); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, baseline)
			lg.settle(t, "cut short", false)
			if strings.HasPrefix(tc.name, "Close") {
				return
			}
			if err := epoch(lg, loader(t, ds), ctx, 1, 0); err != nil {
				t.Fatal(err)
			}
			lg.settle(t, "the epoch after", true)
		})
	}
}

// TestPipelineLeaseLedgerFaults: a record read that fails — its store
// errs, or panics — gives back the lease it took, once, whichever reader
// issued it, and a ledger (see ledger) finds nothing else amiss. Only the
// failed read gives a lease back with no sample: every other delivers one.
func TestPipelineLeaseLedgerFaults(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	const bad = 5 // the record whose read fails
	ctx := context.Background()
	for _, fault := range []struct {
		name string
		fail func() error
	}{
		{"error", func() error { return errors.New("store fault") }},
		{"panic", func() error { panic("store fault") }},
	} {
		for _, read := range []struct {
			name string
			run  func(t *testing.T, ds *pcr.Dataset, lg *ledger) error
		}{
			{"Epoch", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
				l, err := pcr.NewLoader(ds, pcr.WithBatchSize(3))
				if err != nil {
					t.Fatal(err)
				}
				for b, err := range l.Epoch(ctx, 0) {
					if err != nil {
						return err
					}
					lg.bodyReturned(b.Samples...)
				}
				return nil
			}},
			{"ScanEncoded", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error { return firstErr(ds.ScanEncoded(ctx, pcr.Full)) }},
			{"ReadRecordEncoded", func(t *testing.T, ds *pcr.Dataset, lg *ledger) error {
				_, err := ds.ReadRecordEncoded(bad, pcr.Full)
				return err
			}},
		} {
			t.Run(fault.name+"/"+read.name, func(t *testing.T) {
				ds, err := pcr.OpenWrapped(dir, hooked(func(name string) error {
					if name == recordName(bad) {
						return fault.fail()
					}
					return nil
				}, nil), pcr.WithPrefetchWorkers(2))
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				lg := watchLeases(ds)
				baseline := runtime.NumGoroutine()
				if err := read.run(t, ds, lg); err == nil || !strings.Contains(err.Error(), "store fault") {
					t.Fatalf("a read over a store that fails record %d: %v", bad, err)
				}
				waitGoroutines(t, baseline)
				lg.mu.Lock()
				empty := lg.empty
				lg.mu.Unlock()
				if empty != 1 {
					t.Errorf("%d leases went back with no sample, want the failed read's, once", empty)
				}
				lg.settle(t, "the failed read", false)
			})
		}
	}
}
