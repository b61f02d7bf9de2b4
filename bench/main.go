// Command bench is the repository's benchmark: six named workloads driven
// through the public pcr facade for the end-to-end numbers, and — in a
// separate traced phase — through the benchmark's own composition of the
// layers' public calls for a per-layer time budget. See README.md.
//
//	go run ./bench                       every workload, both phases, a table
//	go run ./bench --workload NAME ...   one workload; last line is one JSON object
//	go run ./bench -selfcheck            the whole set twice, compared
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload alone and end with one JSON line; empty runs all six")
	seed := fs.Int64("seed", 1, "makes the inputs: images, shuffle order, filter labels")
	seconds := fs.Float64("seconds", 8, "measuring time per workload")
	trace := fs.Int("trace", -1, "1 adds the traced phase and (with --workload) prints the per-layer metrics; default 0 with --workload, 1 without")
	traceOut := fs.String("trace-out", "", "write the spans of the traced phase to this file as JSON")
	reportOut := fs.String("out", "", "write the full report to this file as JSON")
	compare := fs.Bool("compare", false, "compare two report files: -compare a.json b.json")
	selfcheck := fs.Bool("selfcheck", false, "run the whole set twice and compare the two")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two report files"))
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !printComparison(out, a, b) {
			return 1
		}
		return 0
	}

	cfg := config{seed: *seed, seconds: *seconds, plan: fullPlan, setups: 3, traceOut: *traceOut,
		workloads: workloads, trace: *trace != 0}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("no workload %q", *name))
		}
		cfg.workloads, cfg.trace = []workload{w}, *trace == 1
		if cfg.trace {
			cfg.setups = 1 // the traced line carries no setup_s to take a median for
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	// Everything the benchmark writes goes under .bench_build/ of the
	// directory it is run from, and is removed again.
	scratch := filepath.Join(cwd, ".bench_build", "work")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	if cfg.work, err = os.MkdirTemp(scratch, "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(cfg.work)

	ctx := context.Background()
	rep, err := runSet(ctx, cfg)
	if err != nil {
		return fail(err)
	}
	ok := rep.correct()
	if *selfcheck {
		again, err := runSet(ctx, cfg)
		if err != nil {
			return fail(err)
		}
		ok = printComparison(out, rep, again) && ok && again.correct()
	} else if *name == "" {
		printReport(out, rep)
	}
	if *reportOut != "" {
		if err := writeJSON(*reportOut, rep); err != nil {
			return fail(err)
		}
	}
	if *name != "" {
		// The driver's contract: the last line of standard output.
		line, err := json.Marshal(rep.Workloads[0].driverLine(cfg.trace))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(out, string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

type config struct {
	workloads []workload
	seed      int64
	seconds   float64 // measuring time per workload, both phases together
	trace     bool
	traceOut  string
	plan      plan
	setups    int    // how often set-up is repeated; setup_s is the median
	work      string // scratch directory
}

// measured is a workload while it is being run.
type measured struct {
	w      workload
	r      runner
	rounds []roundResult
	allocs []float64 // bytes allocated per image, by round
	traced []roundResult
	rep    *workloadReport
}

// runSet sets bench-v1 up, checks every workload's outputs, and then runs
// the workloads' rounds interleaved (W1, W2, …, W1, …) so that drift of the
// machine falls on all of them alike: first through the facade, then, when
// tracing, through the traced composition.
func runSet(ctx context.Context, cfg config) (*report, error) {
	in, err := generate(cfg.seed, cfg.plan.images)
	if err != nil {
		return nil, err
	}
	yard := &in.yard
	var e *env
	var setups []float64
	for k := 0; k < cfg.setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		factor, err := yard.timed(1, func() (err error) { // set-up is the ingest, on one goroutine
			t := time.Now()
			e, err = setUp(in, cfg.plan, cfg.work)
			took = time.Since(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds()*factor)
	}
	defer e.close()
	if err := e.prepare(ctx); err != nil {
		return nil, err
	}

	rep := &report{Seed: cfg.seed, P: parallelism(), Seconds: cfg.seconds, Images: cfg.plan.images}
	var set []*measured
	for _, w := range cfg.workloads {
		m := &measured{w: w, rep: &workloadReport{Name: w.name, Why: w.why}}
		rep.Workloads = append(rep.Workloads, m.rep)
		set = append(set, m)
		if m.r, err = w.bind(e); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	// The untimed correctness pass. A failed check fails the run but does
	// not stop it: the numbers of a wrong program are still worth seeing.
	verr := e.verifyRemote(ctx)
	micros := make(map[int]micro)
	for _, m := range set {
		err := verr
		if err == nil {
			err = m.r.verify(ctx)
		}
		if _, done := micros[m.w.quality]; !done && err == nil {
			micros[m.w.quality], err = e.checkCodec(ctx, m.w.quality)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: FAILED: %s: %v\n", m.w.name, err)
			m.rep.VerifyError = err.Error()
		}
	}

	facade := time.Duration(cfg.seconds * float64(len(set)) * float64(time.Second))
	if cfg.trace {
		facade /= 2
	}
	var ms runtime.MemStats
	err = interleave(ctx, yard, set, facade, func(m *measured, i int) (*roundResult, error) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r, err := m.r.round(ctx, i)
		if err != nil || i == 0 {
			return nil, err // round 0 is the warm-up: caches fill, connections open, pools grow
		}
		runtime.ReadMemStats(&ms)
		m.rounds = append(m.rounds, r)
		m.allocs = append(m.allocs, float64(ms.TotalAlloc-before)/float64(r.images))
		return &m.rounds[len(m.rounds)-1], nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range set {
		m.rep.endToEnd(e, m.rounds, m.allocs, setups)
	}
	if !cfg.trace {
		return rep, nil
	}

	tl, err := newTracedLayers(e)
	if err != nil {
		return nil, err
	}
	var opens map[string]float64
	factor, err := yard.timed(1, func() (err error) {
		opens, err = tl.timeOpens()
		return err
	})
	if err != nil {
		return nil, tl.closeAfter(err)
	}
	for k := range opens {
		opens[k] *= factor
	}
	for _, m := range set {
		// Tracing one workload at a time keeps its spans and counters apart;
		// they count from the end of its warm-up round.
		var mark int
		var before liveCounters
		err = interleave(ctx, yard, []*measured{m}, facade/time.Duration(len(set)), func(m *measured, i int) (*roundResult, error) {
			tl.tr.setRound(m.w.name, i)
			r, err := m.r.tracedRound(ctx, i, tl)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				mark, tl.acc, before = tl.tr.mark(), accumulators{}, tl.live()
				return nil, nil
			}
			m.traced = append(m.traced, r)
			return &m.traced[len(m.traced)-1], nil
		})
		if err != nil {
			return nil, tl.closeAfter(err)
		}
		m.rep.perLayer(e, m, tl, tl.tr.since(mark), before, micros[m.w.quality], opens)
	}
	spans := tl.tr.since(0)
	if err := tl.close(); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// interleave runs round 0 (the warm-up) of every workload and then whole
// rounds in turn until budget has passed since the warm-ups ended, at least
// two measured rounds each. A yardstick slot runs between any two rounds, on
// as many goroutines as the round after it keeps busy, and each round that
// round returns is given the clock factor of the slots on either side of it.
func interleave(ctx context.Context, yard *yardstick, set []*measured, budget time.Duration, round func(m *measured, i int) (*roundResult, error)) error {
	var start time.Time
	var before float64
	lanes := 0 // of the slot that measured before
	for i := 0; i < 3 || time.Since(start) < budget; i++ {
		if i == 1 {
			start = time.Now()
		}
		for _, m := range set {
			if err := ctx.Err(); err != nil {
				return err
			}
			if lanes != m.w.lanes() {
				lanes = m.w.lanes()
				before = yard.slot(lanes)
			}
			r, err := round(m, i)
			if err != nil {
				return fmt.Errorf("%s: round %d: %w", m.w.name, i, err)
			}
			after := yard.slot(lanes)
			if r != nil {
				r.clock = clock(before, after)
			}
			before = after
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
