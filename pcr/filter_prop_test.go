package pcr_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/pcr"
)

// randomPredicate draws a predicate AST whose leaves are grounded in the
// dataset's observed IDs and labels (plus out-of-domain values), so random
// predicates select interesting subsets instead of almost always nothing.
func randomPredicate(rng *rand.Rand, depth int, ids, labels []int64) pcr.Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			k := 1 + rng.Intn(3)
			vals := make([]int64, k)
			for i := range vals {
				vals[i] = labels[rng.Intn(len(labels))] + rng.Int63n(3) - 1
			}
			return pcr.LabelIn(vals...)
		case 1:
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			return pcr.IDRange(a, b) // sometimes empty (a > b) on purpose
		case 2:
			return pcr.IDRange(ids[rng.Intn(len(ids))], math.MaxInt64)
		case 3:
			return pcr.IDRange(math.MinInt64, ids[rng.Intn(len(ids))])
		default:
			return pcr.LabelIn(rng.Int63n(1000)) // usually matches nothing
		}
	}
	switch rng.Intn(3) {
	case 0:
		return pcr.And(randomPredicate(rng, depth-1, ids, labels), randomPredicate(rng, depth-1, ids, labels))
	case 1:
		return pcr.Or(randomPredicate(rng, depth-1, ids, labels), randomPredicate(rng, depth-1, ids, labels))
	default:
		return pcr.Not(randomPredicate(rng, depth-1, ids, labels))
	}
}

// countingBackend counts the bytes its ReadRange calls return: every byte a
// tierless local dataset reads, whole prefixes and sparse ranges alike.
type countingBackend struct {
	core.Backend
	n *atomic.Int64
}

func (b countingBackend) ReadRange(name string, off, n int64) ([]byte, error) {
	buf, err := b.Backend.ReadRange(name, off, n)
	b.n.Add(int64(len(buf)))
	return buf, err
}

// movedBelow returns a reading of the record bytes ds's reads take from the
// layer beneath pcr, each layer by its own count: the memory tier's
// BytesServed when it is mounted, else the disk tier's, else the server's
// for a remote dataset (srv), else a countingBackend put under ds.
func movedBelow(ds *pcr.Dataset, srv *serve.Server) func() int64 {
	if _, ok := ds.CacheStats(); ok {
		return func() int64 { st, _ := ds.CacheStats(); return st.BytesServed }
	}
	if _, ok := ds.DiskCacheStats(); ok {
		return func() int64 { st, _ := ds.DiskCacheStats(); return st.BytesServed }
	}
	if srv != nil {
		return func() int64 { return srv.Stats().BytesServed }
	}
	n := new(atomic.Int64)
	ds.WrapBackend(func(inner core.Backend) core.Backend { return countingBackend{inner, n} })
	return n.Load
}

// samePrice fails unless a drained filtered scan yielded and moved what
// plan priced: its selected samples, and its bytes as the layer beneath pcr
// counted them (movedBelow).
func samePrice(t *testing.T, what string, plan pcr.FilterPlan, yielded int, moved int64) {
	t.Helper()
	if yielded != plan.Selected || moved != plan.Bytes {
		t.Fatalf("%s: the drained scan yielded %d samples and moved %d bytes, PlanFilter %+v", what, yielded, moved, plan)
	}
}

// TestFilteredScanEquivalenceProperty is the central correctness property
// of the queryable dataset: for random predicates, at every quality level,
// Scan(WithFilter(p)) delivers exactly the samples of an unfiltered scan
// post-filtered client-side — same samples, same order, byte-identical
// streams — on every read path: the cacheless sparse-range path, the
// full-read paths through the memory and the disk tier (including §5 delta
// upgrades as quality ascends), and the remote pushdown path. The filter
// must also be priced exactly: PlanFilter on the same dataset selects the
// samples delivered out of all of them, prices the unfiltered volume in
// FullBytes and the bytes the layer beneath pcr moved for the scan in Bytes
// — a price that needs no read, so a dataset whose every read fails prices
// the same.
func TestFilteredScanEquivalenceProperty(t *testing.T) {
	datasets := []struct {
		name string
		opts []pcr.Option
	}{
		{"r8g4", []pcr.Option{pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)}},
		{"r5g3", []pcr.Option{pcr.WithImagesPerRecord(5), pcr.WithScanGroups(3)}},
	}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for _, dc := range datasets {
		t.Run(dc.name, func(t *testing.T) {
			dir, _ := synthDir(t, dc.opts...)
			srv, ts := startServer(t, dir, nil)

			sparse, err := pcr.Open(dir) // no cache tiers: sparse range reads
			if err != nil {
				t.Fatal(err)
			}
			defer sparse.Close()
			cached, err := pcr.Open(dir, pcr.WithCacheBytes(1<<30)) // full reads + delta upgrades
			if err != nil {
				t.Fatal(err)
			}
			defer cached.Close()
			disk, err := pcr.Open(dir, pcr.WithDiskCache(t.TempDir(), 64<<20)) // full reads through the disk tier
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			remote, err := pcr.OpenRemote(ts.URL) // bitmap pushdown over the wire
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			unreadable, err := pcr.Open(dir) // every read fails
			if err != nil {
				t.Fatal(err)
			}
			defer unreadable.Close()
			hook(unreadable, func(name string) error { return fmt.Errorf("read of %s refused", name) }, nil)
			if _, err := unreadable.ReadRecordEncoded(0, pcr.Full); err == nil {
				t.Fatal("a read through the refusing backend succeeded")
			}

			// Ground the predicate domain in the dataset's real identities.
			all, err := collect(ctx, sparse, pcr.Full)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(all))
			labels := make([]int64, len(all))
			for i, s := range all {
				ids[i], labels[i] = s.ID, s.Label
			}

			variants := []struct {
				name  string
				ds    *pcr.Dataset
				moved func() int64
			}{
				{"sparse", sparse, movedBelow(sparse, nil)},
				{"cached", cached, movedBelow(cached, nil)},
				{"disk", disk, movedBelow(disk, nil)},
				{"remote", remote, movedBelow(remote, srv)},
			}
			for trial := 0; trial < 8; trial++ {
				pred := randomPredicate(rng, 3, ids, labels)
				// Ascending qualities make the cached variant exercise §5
				// delta upgrades under the filter.
				for q := 1; q <= sparse.Qualities(); q++ {
					ref, err := collect(ctx, sparse, q)
					if err != nil {
						t.Fatal(err)
					}
					var want []pcr.Sample
					for _, s := range ref {
						if pred.Matches(s.ID, s.Label) {
							want = append(want, s)
						}
					}
					size, err := sparse.SizeAtQuality(q)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range variants {
						var got []pcr.Sample
						before := v.moved()
						for s, err := range v.ds.ScanEncoded(ctx, q, pcr.WithFilter(pred)) {
							if err != nil {
								t.Fatalf("%s q%d %q: %v", v.name, q, pred, err)
							}
							got = append(got, s)
						}
						moved := v.moved() - before
						if len(got) != len(want) {
							t.Fatalf("%s q%d %q: %d samples, want %d", v.name, q, pred, len(got), len(want))
						}
						for i := range got {
							if got[i].ID != want[i].ID || got[i].Label != want[i].Label {
								t.Fatalf("%s q%d %q: sample %d is (%d,%d), want (%d,%d)",
									v.name, q, pred, i, got[i].ID, got[i].Label, want[i].ID, want[i].Label)
							}
							if !bytes.Equal(got[i].JPEG, want[i].JPEG) {
								t.Fatalf("%s q%d %q: sample %d stream differs", v.name, q, pred, i)
							}
						}
						plan, err := v.ds.PlanFilter(pred, q)
						if err != nil {
							t.Fatal(err)
						}
						// The price covers every sample and the unfiltered
						// volume exactly. (The cached variants read full
						// prefixes through the cache, so their Bytes differ,
						// but FullBytes must not.)
						if plan.Total != v.ds.NumImages() || plan.FullBytes != size {
							t.Fatalf("%s q%d %q: PlanFilter %+v, want %d samples and %d bytes in all",
								v.name, q, pred, plan, v.ds.NumImages(), size)
						}
						samePrice(t, fmt.Sprintf("%s q%d %q", v.name, q, pred), plan, len(got), moved)
						if len(want) < v.ds.NumImages() && v.name == "sparse" && moved >= size {
							t.Fatalf("sparse q%d %q: proper subset read the full size %d", q, pred, size)
						}
						if v.name == "sparse" {
							blind, err := unreadable.PlanFilter(pred, q)
							if err != nil {
								t.Fatalf("q%d %q: PlanFilter on an unreadable dataset: %v", q, pred, err)
							}
							if blind != plan {
								t.Fatalf("q%d %q: PlanFilter %+v on an unreadable dataset, %+v on a readable one", q, pred, blind, plan)
							}
						}
					}
				}
			}
		})
	}
}
