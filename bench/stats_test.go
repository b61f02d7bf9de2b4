package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 {
		t.Errorf("summarize(1..5) = %+v, want median 3, quartiles 2 and 4, n 5", s)
	}
	if got := s.spread(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	// Interpolation between order statistics.
	if s := summarize([]float64{1, 2, 3, 4}); s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("summarize(1..4) = %+v, want 2.5, 1.75, 3.25", s)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("summarize(7) = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestTail(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, tc := range []struct {
		n          int
		percentile float64
	}{
		{39, 50},      // nothing has ten samples beyond it
		{40, 75},      // 40 × 25 % = 10
		{100, 90},     // 100 × 10 % = 10
		{999, 95},     // 999 × 1 % < 10
		{1000, 99},    // 1000 × 1 % = 10
		{10000, 99.9}, // 10000 × 0.1 % = 10
	} {
		p, v := tail(ramp(tc.n))
		if p != tc.percentile {
			t.Errorf("tail of %d samples: percentile %v, want %v", tc.n, p, tc.percentile)
		}
		if want := p / 100 * float64(tc.n-1); math.Abs(v-want) > 1e-9 {
			t.Errorf("tail of %d samples: value %v, want %v", tc.n, v, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 30, End: 60}, // overlaps its sibling
		{Name: "late", Parent: 0, Start: 90, End: 120}, // sticks out of the parent
		{Name: "grand", Parent: 1, Start: 15, End: 25}, // covers its parent only
		{Name: "alone", Parent: -1, Start: 200, End: 250},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if byName["child"] != 50 || byName["root"] != 40 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setRound("w", 1)
	client := tr.start("client", "rec")
	handler := tr.start("handler", "rec")
	other := tr.start("client", "other") // another record: a root
	tr.end(client, "rec")                // the client returns before the handler does
	tr.end(handler, "rec")
	tr.end(other, "other")
	next := tr.start("client", "rec")
	tr.end(next, "rec")
	got := tr.since(0)
	if got[handler].Parent != client || got[other].Parent != -1 || got[next].Parent != -1 {
		t.Errorf("parents = %d, %d, %d; want %d, -1, -1", got[handler].Parent, got[other].Parent, got[next].Parent, client)
	}
	if got[0].ID != "w/1/rec" {
		t.Errorf("id = %q, want w/1/rec", got[0].ID)
	}
	if rebased := tr.since(handler); rebased[0].Parent != -1 || len(rebased) != 3 {
		t.Errorf("since(%d) = %+v, want three spans, the first a root", handler, rebased)
	}
}

func TestCompareBound(t *testing.T) {
	at := func(median, iqr float64) summary {
		return summary{Median: median, Q1: median - iqr/2, Q3: median + iqr/2, N: 10}
	}
	for _, tc := range []struct {
		name   string
		a, b   summary
		higher bool
		bound  float64
		want   string
	}{
		{"throughput within bound", at(100, 2), at(95, 2), true, 0.10, verdictSame},
		{"throughput fell too far", at(100, 2), at(85, 2), true, 0.10, verdictWorse},
		{"throughput rose", at(100, 2), at(130, 2), true, 0.10, verdictSame},
		{"latency rose too far", at(10, 0.1), at(11.5, 0.1), false, 0.10, verdictWorse},
		{"latency fell", at(10, 0.1), at(5, 0.1), false, 0.10, verdictSame},
		{"too noisy to tell", at(100, 30), at(100, 2), true, 0.10, verdictUnresolved},
		{"exact count unchanged", at(6704, 0), at(6704, 0), false, 0, verdictSame},
		{"exact count grew", at(6704, 0), at(6705, 0), false, 0, verdictWorse},
	} {
		if got := compareBound(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// together: same command, workloads, metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	type entry map[string]any
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	want := map[string]any{
		"command":     []any{"bash", "bench/run.sh"},
		"paths":       []any{"bench"},
		"run_seconds": 8.0,
	}
	var ws, e2e, layers []any
	for _, w := range workloads {
		ws = append(ws, entry{"name": w.name, "why": w.why})
	}
	for _, m := range endToEndMetrics {
		e2e = append(e2e, entry{"name": m.name, "unit": m.unit, "better": better(m.higher), "bound": m.bound})
	}
	for _, m := range perLayerMetrics {
		layers = append(layers, entry{"name": m.name, "unit": m.unit, "better": better(m.higher)})
	}
	want["workloads"], want["end_to_end"], want["per_layer"] = ws, e2e, layers
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	var round any
	if err := json.Unmarshal(wantJSON, &round); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, round) {
		t.Errorf("BENCHMARK.json differs from the benchmark's tables; they say:\n%s", wantJSON)
	}
}

// TestSmoke runs every workload once, facade and traced, on a small input:
// it keeps all of them compiling, running and correct under `go test`.
func TestSmoke(t *testing.T) {
	cfg := config{workloads: workloads, seed: 1, seconds: 0, trace: true, plan: smokePlan, setups: 1,
		work: t.TempDir(), traceOut: t.TempDir() + "/trace.json"}
	rep, err := runSet(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workloads {
		if !w.correct() || w.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, verify error %q", w.Name, w.Attempted, w.Failed, w.VerifyError)
		}
		for _, m := range endToEndMetrics {
			if v := w.EndToEnd[m.name].Median; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.name, v)
			}
		}
		for _, m := range perLayerMetrics {
			if v, ok := w.PerLayer[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v)", w.Name, m.name, v, ok)
			}
		}
		for name := range w.PerLayer {
			if !definesPerLayer(name) {
				t.Errorf("%s: %s is computed but not in perLayerMetrics", w.Name, name)
			}
		}
		line, err := json.Marshal(w.driverLine(false))
		if err != nil || !bytes.Contains(line, []byte(`"correct":true`)) {
			t.Errorf("%s: driver line %s, %v", w.Name, line, err)
		}
	}
	var out bytes.Buffer
	printReport(&out, rep)
	printComparison(&out, rep, rep) // two rounds are too few to resolve anything; it must only not panic
	if !bytes.Contains(out.Bytes(), []byte("verdict")) {
		t.Errorf("no comparison table in:\n%s", out.String())
	}
	if spans, err := os.ReadFile(cfg.traceOut); err != nil || len(spans) < 100 {
		t.Errorf("trace file: %d bytes, %v", len(spans), err)
	}
}

func definesPerLayer(name string) bool {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}
