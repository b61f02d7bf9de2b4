package pcr_test

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/pcr"
)

func TestParseFilterForms(t *testing.T) {
	cases := []struct {
		in        string
		canonical string // expected String(); "" means same as in
		match     [][3]int64
	}{
		{in: "label = 3", match: [][3]int64{{1, 3, 1}, {1, 4, 0}}},
		{in: "label != 3", canonical: "NOT label = 3", match: [][3]int64{{1, 3, 0}, {1, 4, 1}}},
		{in: "label IN (7, 3, 3)", canonical: "label IN (3, 7)",
			match: [][3]int64{{1, 3, 1}, {1, 7, 1}, {1, 5, 0}}},
		{in: "id = 5", match: [][3]int64{{5, 0, 1}, {6, 0, 0}}},
		{in: "id != 5", canonical: "NOT id = 5", match: [][3]int64{{5, 0, 0}, {6, 0, 1}}},
		{in: "id IN [3..6]", match: [][3]int64{{3, 0, 1}, {6, 0, 1}, {2, 0, 0}, {7, 0, 0}}},
		{in: "id IN [6..3]", canonical: "id IN [1..0]", match: [][3]int64{{1, 0, 0}, {4, 0, 0}}},
		{in: "id IN (9, 2, 2)", canonical: "(id = 2 OR id = 9)",
			match: [][3]int64{{2, 0, 1}, {9, 0, 1}, {5, 0, 0}}},
		{in: "id >= 4", match: [][3]int64{{4, 0, 1}, {3, 0, 0}, {math.MaxInt64, 0, 1}}},
		{in: "id > 4", canonical: "id >= 5", match: [][3]int64{{5, 0, 1}, {4, 0, 0}}},
		{in: "id <= 4", match: [][3]int64{{4, 0, 1}, {5, 0, 0}, {math.MinInt64, 0, 1}}},
		{in: "id < 4", canonical: "id <= 3", match: [][3]int64{{3, 0, 1}, {4, 0, 0}}},
		{in: "label IN (1, 2) AND id >= 10", canonical: "(label IN (1, 2) AND id >= 10)",
			match: [][3]int64{{10, 1, 1}, {10, 3, 0}, {9, 2, 0}}},
		{in: "label = 1 OR label = 2 AND id = 5", canonical: "(label = 1 OR (label = 2 AND id = 5))",
			match: [][3]int64{{0, 1, 1}, {5, 2, 1}, {4, 2, 0}}},
		{in: "NOT (label = 1 OR id = 2)", canonical: "NOT (label = 1 OR id = 2)",
			match: [][3]int64{{3, 3, 1}, {3, 1, 0}, {2, 3, 0}}},
		{in: "  LaBeL   iN  ( 3 ,7 )  ", canonical: "label IN (3, 7)",
			match: [][3]int64{{0, 3, 1}, {0, 5, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			p, err := pcr.ParseFilter(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.canonical
			if want == "" {
				want = tc.in
			}
			if got := p.String(); got != want {
				t.Errorf("String() = %q, want %q", got, want)
			}
			for _, m := range tc.match {
				if got := p.Matches(m[0], m[1]); got != (m[2] == 1) {
					t.Errorf("Matches(%d, %d) = %v, want %v", m[0], m[1], got, m[2] == 1)
				}
			}
			// Round trip: the canonical form reparses to an equal predicate.
			p2, err := pcr.ParseFilter(p.String())
			if err != nil {
				t.Fatalf("reparse %q: %v", p.String(), err)
			}
			if !reflect.DeepEqual(p, p2) {
				t.Errorf("round trip changed the predicate: %q -> %q", p, p2)
			}
		})
	}
}

func TestParseFilterErrors(t *testing.T) {
	cases := []string{
		"",
		"label",
		"label = ",
		"label < 3",
		"label IN [1..2]",
		"label IN ()",
		"id IN [1..2",
		"id IN [1, 2]",
		"id ** 3",
		"color = 3",
		"label = 3 extra",
		"label = 99999999999999999999",
		"id = 3 AND",
		"(label = 1",
		"label = 1)",
		"label = 3 🚀",
		strings.Repeat("NOT ", 500) + "label = 1",
		strings.Repeat("(", 500) + "label = 1" + strings.Repeat(")", 500),
	}
	for _, in := range cases {
		if p, err := pcr.ParseFilter(in); err == nil {
			t.Errorf("ParseFilter(%q) accepted as %q", in, p)
		}
	}
}

func TestFilterCombinators(t *testing.T) {
	if p := pcr.LabelIn(); p.Matches(1, 1) {
		t.Error("empty LabelIn matched")
	}
	if p := pcr.IDRange(5, 3); p.Matches(4, 0) {
		t.Error("empty IDRange matched")
	}
	if got, want := pcr.LabelIn(4, 1, 4, 2).String(), "label IN (1, 2, 4)"; got != want {
		t.Errorf("LabelIn String = %q, want %q", got, want)
	}
	p := pcr.And(pcr.Not(pcr.LabelIn(3)), pcr.Or(pcr.IDRange(1, 5), pcr.IDRange(10, 10)))
	for _, tc := range []struct {
		id, label int64
		want      bool
	}{
		{3, 1, true}, {3, 3, false}, {10, 0, true}, {7, 0, false},
	} {
		if got := p.Matches(tc.id, tc.label); got != tc.want {
			t.Errorf("Matches(%d, %d) = %v, want %v", tc.id, tc.label, got, tc.want)
		}
	}
	// Combinator output reparses to an equal predicate too.
	p2, err := pcr.ParseFilter(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Errorf("combinator round trip changed the predicate: %q -> %q", p, p2)
	}
}

func TestScanOptionValidation(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	expectErr := func(name string, opts ...pcr.ScanOption) {
		t.Helper()
		var got error
		for _, err := range ds.Scan(ctx, pcr.Full, opts...) {
			got = err
			break
		}
		if got == nil {
			t.Errorf("%s: no error", name)
		}
	}
	expectErr("nil predicate", pcr.WithFilter(nil))
}

// The planner must price exactly what the filtered scan then reads, by the
// count of the backend beneath it.
func TestPlanFilterMatchesScan(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	moved := movedBelow(ds, nil)
	pred, err := pcr.ParseFilter("label IN (0, 1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	for q := 1; q <= ds.Qualities(); q++ {
		plan, err := ds.PlanFilter(pred, q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Total != ds.NumImages() {
			t.Fatalf("q%d: plan.Total = %d, want %d", q, plan.Total, ds.NumImages())
		}
		full, err := ds.SizeAtQuality(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.FullBytes != full {
			t.Fatalf("q%d: plan.FullBytes = %d, want %d", q, plan.FullBytes, full)
		}
		got := 0
		before := moved()
		for s, err := range ds.ScanEncoded(context.Background(), q, pcr.WithFilter(pred)) {
			if err != nil {
				t.Fatal(err)
			}
			if !pred.Matches(s.ID, s.Label) {
				t.Fatalf("q%d: sample (%d,%d) escaped the filter", q, s.ID, s.Label)
			}
			got++
		}
		samePrice(t, fmt.Sprintf("q%d", q), plan, got, moved()-before)
	}
	// A predicate matching nothing reads nothing.
	none, _ := pcr.ParseFilter("id < -1000000")
	plan, err := ds.PlanFilter(none, pcr.Full)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bytes != 0 || plan.Selected != 0 || plan.RecordsSkipped != plan.Records || plan.FullBytes == 0 {
		t.Fatalf("empty predicate priced %+v", plan)
	}
	before := moved()
	for _, err := range ds.ScanEncoded(context.Background(), pcr.Full, pcr.WithFilter(none)) {
		if err != nil {
			t.Fatal(err)
		}
		t.Fatal("empty predicate delivered a sample")
	}
	if n := moved() - before; n != 0 {
		t.Fatalf("empty predicate read %d bytes", n)
	}
}

func TestPlanFilterNoSampleIndex(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithFormat(pcr.TFRecord))
	ds, err := pcr.Open(dir, pcr.WithFormat(pcr.TFRecord))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := ds.PlanFilter(pcr.LabelIn(1), pcr.Full); err == nil {
		t.Fatal("PlanFilter on tfrecord succeeded; filtering there is post-read with no plan")
	}
	// Filtered scans still work on baseline formats via the generic
	// post-read selection stage: the unfiltered scan, post-filtered.
	all, err := collect(context.Background(), ds, pcr.Full)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, s := range all {
		if s.Label == 0 || s.Label == 1 {
			want = append(want, s.ID)
		}
	}
	var got []int64
	for s, err := range ds.ScanEncoded(context.Background(), pcr.Full, pcr.WithFilter(pcr.LabelIn(0, 1))) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, s.ID)
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("filtered scan delivered ids %v, the post-filtered scan %v", got, want)
	}
}

// TestMixedGroupsReadAtEveryQuality: a record may store fewer scan groups
// than the dataset — here record 0 holds four colour images and record 1
// four grayscale ones, which have fewer scans. At every quality, above
// record 1's own group count too, a filtered scan delivers the samples of a
// post-filtered local scan byte for byte, locally, through the memory tier
// and over the wire; ReadRecord reads record 1; and PlanFilter prices
// exactly what each drained scan yields and moves beneath pcr.
func TestMixedGroupsReadAtEveryQuality(t *testing.T) {
	dir := t.TempDir()
	w, err := pcr.Create(dir, pcr.WithImagesPerRecord(4))
	if err != nil {
		t.Fatal(err)
	}
	const size = 32
	for i := 0; i < 8; i++ {
		var img image.Image
		if i < 4 {
			rgba := image.NewRGBA(image.Rect(0, 0, size, size))
			for p := range rgba.Pix {
				rgba.Pix[p] = uint8(p*(i+3) ^ p>>5)
			}
			img = rgba
		} else {
			gray := image.NewGray(image.Rect(0, 0, size, size))
			for p := range gray.Pix {
				gray.Pix[p] = uint8(p*(i+1) ^ p>>4)
			}
			img = gray
		}
		if err := w.Append(pcr.Sample{ID: int64(i), Label: int64(i % 2), Image: img}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	srv, ts := startServer(t, dir, nil)
	open := func(remote bool, opts ...pcr.Option) *pcr.Dataset {
		t.Helper()
		var ds *pcr.Dataset
		if remote {
			ds, err = pcr.OpenRemote(ts.URL, opts...)
		} else {
			ds, err = pcr.Open(dir, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}
	local := open(false)
	top := local.Qualities()
	below, err := local.RecordPrefixLen(1, top-1)
	if err != nil {
		t.Fatal(err)
	}
	if whole, _ := local.RecordPrefixLen(1, top); whole != below {
		t.Fatalf("record 1 stores all %d groups; the test needs a record that stores fewer", top)
	}
	memory, remote := open(false, pcr.WithCacheBytes(1<<20)), open(true)
	variants := []struct {
		name  string
		ds    *pcr.Dataset
		moved func() int64
	}{
		{"local", local, movedBelow(local, nil)},
		{"memory", memory, movedBelow(memory, nil)},
		{"remote", remote, movedBelow(remote, srv)},
	}
	pred := pcr.LabelIn(1)
	ctx := context.Background()
	for q := 1; q <= top; q++ {
		all, err := collect(ctx, local, q)
		if err != nil {
			t.Fatal(err)
		}
		var want []pcr.Sample
		for _, s := range all {
			if pred.Matches(s.ID, s.Label) {
				want = append(want, s)
			}
		}
		for _, v := range variants {
			var got []pcr.Sample
			before := v.moved()
			for s, err := range v.ds.ScanEncoded(ctx, q, pcr.WithFilter(pred)) {
				if err != nil {
					t.Fatalf("%s q%d: %v", v.name, q, err)
				}
				got = append(got, s)
			}
			moved := v.moved() - before
			if len(got) != len(want) {
				t.Fatalf("%s q%d: %d samples, want %d", v.name, q, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || !bytes.Equal(got[i].JPEG, want[i].JPEG) {
					t.Fatalf("%s q%d: sample %d (id %d) differs from the post-filtered local scan", v.name, q, i, got[i].ID)
				}
			}
			plan, err := v.ds.PlanFilter(pred, q)
			if err != nil {
				t.Fatal(err)
			}
			samePrice(t, fmt.Sprintf("%s q%d", v.name, q), plan, len(got), moved)
			if rec, err := v.ds.ReadRecord(ctx, 1, q); err != nil || len(rec) != 4 {
				t.Fatalf("%s q%d: ReadRecord(1) = %d samples, %v", v.name, q, len(rec), err)
			}
		}
	}
}
