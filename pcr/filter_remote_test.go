package pcr_test

import (
	"bytes"
	"context"
	"testing"

	"repro/pcr"
)

// TestRemoteFilteredScanMovesOnlySelectedBytes is the pushdown acceptance
// scenario, the filtered counterpart of the delta-byte e2e: scan a served
// dataset with a predicate and prove with the server's own counters that
// exactly the planned subset bytes crossed the wire — no more — while the
// delivered samples stay byte-identical to a local filtered scan.
func TestRemoteFilteredScanMovesOnlySelectedBytes(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	srv, ts := startServer(t, dir, nil)

	local, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := pcr.OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	pred, err := pcr.ParseFilter("label IN (0, 1, 2) OR id = 3")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for q := 1; q <= local.Qualities(); q++ {
		plan, err := local.PlanFilter(pred, q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Selected == 0 || plan.Selected == plan.Total {
			t.Fatalf("q%d: degenerate plan %+v; pick a predicate selecting a proper subset", q, plan)
		}
		var want []pcr.Sample
		for s, err := range local.ScanEncoded(ctx, q, pcr.WithFilter(pred)) {
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, s)
		}

		before := srv.Stats()
		var got []pcr.Sample
		for s, err := range remote.ScanEncoded(ctx, q, pcr.WithFilter(pred)) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, s)
		}
		after := srv.Stats()

		if len(got) != len(want) || len(got) != plan.Selected {
			t.Fatalf("q%d: remote delivered %d samples, local %d, plan selects %d", q, len(got), len(want), plan.Selected)
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Label != want[i].Label || !bytes.Equal(got[i].JPEG, want[i].JPEG) {
				t.Fatalf("q%d: sample %d differs between remote and local filtered scans", q, i)
			}
		}

		// The server served exactly the plan: the coalesced selected ranges,
		// strictly less than the unfiltered scan, one pushdown request per
		// record actually read, and zero bytes for index-skipped records.
		served := after.BytesServed - before.BytesServed
		if served != plan.Bytes {
			t.Fatalf("q%d: server moved %d bytes, plan says %d", q, served, plan.Bytes)
		}
		full, err := local.SizeAtQuality(q)
		if err != nil {
			t.Fatal(err)
		}
		if served >= full {
			t.Fatalf("q%d: filtered scan moved %d bytes, unfiltered is %d", q, served, full)
		}
		if reqs := after.PushdownRequests - before.PushdownRequests; int(reqs) != plan.Records-plan.RecordsSkipped {
			t.Fatalf("q%d: %d pushdown requests, want %d (records read)", q, reqs, plan.Records-plan.RecordsSkipped)
		}
		if saved := after.PushdownBytesSaved - before.PushdownBytesSaved; saved <= 0 {
			t.Fatalf("q%d: PushdownBytesSaved delta = %d, want > 0", q, saved)
		}
	}
}

// TestRemoteFilteredLoaderMovesOnlySelectedBytes runs the filtered batch
// pipeline against the serving layer: one epoch must move exactly the
// planned subset bytes and deliver exactly the predicate's samples.
func TestRemoteFilteredLoaderMovesOnlySelectedBytes(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	srv, ts := startServer(t, dir, nil)

	remote, err := pcr.OpenRemote(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	pred, err := pcr.ParseFilter("label IN (0, 1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := remote.PlanFilter(pred, pcr.Full)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Selected == 0 || plan.Selected == plan.Total {
		t.Fatalf("degenerate plan %+v", plan)
	}
	l, err := pcr.NewLoader(remote, pcr.WithBatchSize(4), pcr.WithLoaderFilter(pred))
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	delivered := 0
	for b, err := range l.Epoch(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			if !pred.Matches(s.ID, s.Label) {
				t.Fatalf("sample (%d,%d) escaped the loader filter", s.ID, s.Label)
			}
			delivered++
		}
	}
	after := srv.Stats()
	if delivered != plan.Selected {
		t.Fatalf("epoch delivered %d images, plan selects %d", delivered, plan.Selected)
	}
	if served := after.BytesServed - before.BytesServed; served != plan.Bytes {
		t.Fatalf("epoch moved %d bytes, plan says %d", served, plan.Bytes)
	}
	st, ok := l.LastEpochStats()
	if !ok {
		t.Fatal("no epoch stats")
	}
	if st.Images != plan.Selected || st.SkippedImages != plan.Total-plan.Selected {
		t.Fatalf("stats %d delivered / %d skipped, plan %d / %d",
			st.Images, st.SkippedImages, plan.Selected, plan.Total-plan.Selected)
	}
	if st.BytesRead != plan.Bytes {
		t.Fatalf("stats read %d bytes, plan says %d", st.BytesRead, plan.Bytes)
	}
	if st.BytesAvoided != plan.FullBytes-plan.Bytes {
		t.Fatalf("stats avoided %d bytes, plan says %d", st.BytesAvoided, plan.FullBytes-plan.Bytes)
	}
}
