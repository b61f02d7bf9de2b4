package pcr_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// samePrice fails unless plan is the price a drained filtered scan reported
// in fs: the same samples, records and bytes.
func samePrice(t *testing.T, what string, plan pcr.FilterPlan, fs pcr.FilterStats) {
	t.Helper()
	if int64(plan.Selected) != fs.Selected || int64(plan.Total) != fs.Selected+fs.Skipped ||
		int64(plan.RecordsSkipped) != fs.RecordsSkipped || plan.Bytes != fs.BytesRead ||
		plan.FullBytes != fs.BytesRead+fs.BytesAvoided {
		t.Fatalf("%s: PlanFilter %+v, the drained scan %+v", what, plan, fs)
	}
}

// TestFilteredScanEquivalenceProperty is the central correctness property
// of the queryable dataset: for random predicates, at every quality level,
// Scan(WithFilter(p)) delivers exactly the samples of an unfiltered scan
// post-filtered client-side — same samples, same order, byte-identical
// streams — on every read path: the cacheless sparse-range path, the
// full-read paths through the memory and the disk tier (including §5 delta
// upgrades as quality ascends), and the remote pushdown path. The filter
// must also account every sample and every byte: selected + skipped = all,
// read + avoided = the unfiltered scan's volume, and the drained stats are
// exactly what PlanFilter priced on the same dataset — a price that needs
// no read, so a dataset whose every read fails prices the same.
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
			_, ts := startServer(t, dir, nil)

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
				name string
				ds   *pcr.Dataset
			}{{"sparse", sparse}, {"cached", cached}, {"disk", disk}, {"remote", remote}}
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
						var fs pcr.FilterStats
						var got []pcr.Sample
						for s, err := range v.ds.ScanEncoded(ctx, q, pcr.WithFilter(pred), pcr.WithFilterStats(&fs)) {
							if err != nil {
								t.Fatalf("%s q%d %q: %v", v.name, q, pred, err)
							}
							got = append(got, s)
						}
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
						if fs.Selected != int64(len(want)) || fs.Selected+fs.Skipped != int64(v.ds.NumImages()) {
							t.Fatalf("%s q%d %q: stats %+v inconsistent with %d/%d samples",
								v.name, q, pred, fs, len(want), v.ds.NumImages())
						}
						// Byte accounting covers the unfiltered volume exactly.
						// (The cached variant reads full prefixes through the
						// cache, so its split differs, but the sum must not.)
						if fs.BytesRead+fs.BytesAvoided != size {
							t.Fatalf("%s q%d %q: read %d + avoided %d != size %d",
								v.name, q, pred, fs.BytesRead, fs.BytesAvoided, size)
						}
						if len(want) < v.ds.NumImages() && v.name == "sparse" && fs.BytesRead >= size {
							t.Fatalf("sparse q%d %q: proper subset read the full size %d", q, pred, size)
						}
						plan, err := v.ds.PlanFilter(pred, q)
						if err != nil {
							t.Fatal(err)
						}
						samePrice(t, fmt.Sprintf("%s q%d %q", v.name, q, pred), plan, fs)
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
