package main

import (
	"context"
	"fmt"
	"iter"
	"os"
	"sync"
	"time"

	"repro/pcr"
)

// plan fixes the work of one round of each workload. The sizes are constants,
// never calibrated at run time, so two commits do identical work; a run is as
// many whole rounds as fit in --seconds.
type plan struct {
	images       int // bench-v1 size
	localEpochs  int // train_local_full: epochs per round
	remoteEpochs int // train_remote_q5: epochs per round
	serveReads   int // serve_encoded: record reads per round
	cacheCycles  int // cache_tiers: cycles per round
	filterPasses int // filtered_pushdown: filtered scans per round
}

// fullPlan sizes a round to 0.3–0.5 s on a 2-core 2.1 GHz box.
var fullPlan = plan{images: 384, localEpochs: 1, remoteEpochs: 2, serveReads: 1600,
	cacheCycles: 10, filterPasses: 150}

// smokePlan keeps `go test` fast while still running every workload.
var smokePlan = plan{images: 64, localEpochs: 1, remoteEpochs: 1, serveReads: 64,
	cacheCycles: 1, filterPasses: 2}

// Cache budgets of cache_tiers. The memory tier holds the q2 working set
// (about 0.37 MB of bench-v1) and not the Full one (about 2.6 MB), whose
// sequential scan therefore defeats the LRU and is served by the disk tier.
const (
	memTierBytes  = 1 << 20
	diskTierBytes = 64 << 20
)

// roundResult is what one round of fixed work measured.
type roundResult struct {
	wall      time.Duration
	clock     float64   // turns this round's times into calibrated time; see clock.go
	images    int       // delivered to the consumer
	bytes     int64     // bytes across the workload's lowest boundary
	ops       []float64 // latency of each closed-loop operation, ms
	attempted int       // operations, including the checks made on them
	failed    int
	stall     time.Duration            // train_*: EpochStats.Stall
	phase     map[string]time.Duration // cache_tiers: wall per phase
	phaseImgs map[string]int
}

// check counts one attempted operation and fails it unless ok.
func (r *roundResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runner is one workload bound to an env.
type runner interface {
	// round does the workload's fixed work once, through the pcr facade.
	round(ctx context.Context, i int) (roundResult, error)
	// tracedRound does the same work through the benchmark's own composition
	// of the layers' public calls, with a span around each call.
	tracedRound(ctx context.Context, i int, tl *tracedLayers) (roundResult, error)
	// verify is the untimed correctness pass.
	verify(ctx context.Context) error
}

// workload names a runner and says why it exists. quality is the facade
// quality its images are delivered at (decode checks use it); parallel says
// that it keeps P goroutines busy at once and not one.
type workload struct {
	name     string
	why      string
	quality  int
	parallel bool
	bind     func(e *env) (runner, error)
}

// lanes is how many goroutines the workload keeps busy at once.
func (w workload) lanes() int {
	if w.parallel {
		return parallelism()
	}
	return 1
}

var workloads = []workload{
	{"train_local_full", "decode-bound: Loader over a local dataset at full quality, where codec and decode-pool changes must show and storage changes must not", pcr.Full, true,
		func(e *env) (runner, error) { return newTrain(e, e.local, pcr.Full, e.plan.localEpochs, false) }},
	{"train_remote_q5", "the paper's operating point: the same Loader over the wire at quality 5, so truncated-scan decode, index fetch and client are all on the path", q5, true,
		func(e *env) (runner, error) { return newTrain(e, e.remote, q5, e.plan.remoteEpochs, true) }},
	{"serve_encoded", "no decode at all: P readers pull whole records from a warm server, so handler, HTTP client and reassembly do all the work", pcr.Full, true,
		func(e *env) (runner, error) { return &serveWorkload{e: e}, nil }},
	{"cache_tiers", "memory and disk tiers on a working set that fits memory (q2) and one that does not (Full): cold fill, warm reads, delta upgrade, reopen", pcr.Full, false,
		func(e *env) (runner, error) { return &cacheWorkload{e: e}, nil }},
	{"filtered_pushdown", "sparse reads: a 10% label filter pushed to the server, using side index, range planning and gather/scatter instead of whole prefixes", pcr.Full, false,
		func(e *env) (runner, error) { return newFilter(e) }},
	{"ingest", "the write beside the reads: transcode to progressive, record layout, side index and metadata puts, so a read gain that costs writes shows", pcr.Full, false,
		func(e *env) (runner, error) { return &ingestWorkload{e: e}, nil }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- train_local_full, train_remote_q5 ----

type trainWorkload struct {
	e       *env
	quality int
	epochs  int
	remote  bool
	loader  *pcr.Loader
	seen    []bool
}

func newTrain(e *env, ds *pcr.Dataset, quality, epochs int, remote bool) (*trainWorkload, error) {
	loader, err := pcr.NewLoader(ds, pcr.WithBatchSize(32), pcr.WithShuffleWindow(8),
		pcr.WithLoaderSeed(e.in.seed), pcr.WithQuality(quality))
	if err != nil {
		return nil, err
	}
	return &trainWorkload{e: e, quality: quality, epochs: epochs, remote: remote,
		loader: loader, seen: make([]bool, ds.NumImages())}, nil
}

// consume drains one epoch's batches as a training job would, without the
// compute: it times the wait for each batch and checks that every sample
// arrives decoded and exactly once.
func (w *trainWorkload) consume(r *roundResult, batches iter.Seq2[pcr.Batch, error]) error {
	clear(w.seen)
	got := 0
	t := time.Now()
	for b, err := range batches {
		r.ops = append(r.ops, msSince(t))
		if err != nil {
			return err
		}
		fresh := true
		for _, s := range b.Samples {
			if s.Image == nil || s.ID < 0 || int(s.ID) >= len(w.seen) || w.seen[s.ID] {
				fresh = false
				continue
			}
			w.seen[s.ID] = true
		}
		r.check(fresh, "%d-sample batch holds a repeated, unknown or undecoded sample", len(b.Samples))
		got += len(b.Samples)
		t = time.Now()
	}
	r.check(got == len(w.seen), "epoch delivered %d of %d samples", got, len(w.seen))
	r.images += got
	return nil
}

func (w *trainWorkload) round(ctx context.Context, i int) (roundResult, error) {
	var r roundResult
	wire := w.e.server.wireBytes()
	start := time.Now()
	for k := 0; k < w.epochs; k++ {
		if err := w.consume(&r, w.loader.Epoch(ctx, i*w.epochs+k)); err != nil {
			return r, err
		}
		st, _ := w.loader.LastEpochStats()
		r.stall += st.Stall
		if !w.remote {
			r.bytes += st.BytesRead // cacheless: every prefix byte is a disk read
		}
	}
	r.wall = time.Since(start)
	if w.remote {
		r.bytes = w.e.server.wireBytes() - wire
	}
	r.check(r.bytes == int64(w.epochs)*w.e.size[w.quality],
		"moved %d bytes, the index says %d", r.bytes, int64(w.epochs)*w.e.size[w.quality])
	return r, nil
}

// ---- serve_encoded ----

type serveWorkload struct{ e *env }

// readers runs P closed-loop readers that split reads between them, reader g
// taking records g, g+P, … in turn so no two ever hold the same record.
func (w *serveWorkload) readers(ctx context.Context, srv *server, reads int, read func(rec int) ([]pcr.Sample, error)) (roundResult, error) {
	p := parallelism()
	nrec := w.e.local.NumRecords()
	parts := make([]roundResult, p)
	errs := make([]error, p)
	wire := srv.wireBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &parts[g]
			for k, rec := 0, g%nrec; k < reads/p && ctx.Err() == nil; k, rec = k+1, (rec+p)%nrec {
				t := time.Now()
				samples, err := read(rec)
				r.ops = append(r.ops, msSince(t))
				if err != nil {
					errs[g] = err
					return
				}
				want, _ := w.e.local.RecordImages(rec)
				r.check(len(samples) == want && samples[0].ID == int64(rec*imagesPerRecord),
					"record %d came back as %d samples", rec, len(samples))
				r.images += len(samples)
			}
		}()
	}
	wg.Wait()
	total := roundResult{wall: time.Since(start), bytes: srv.wireBytes() - wire}
	for g := range parts {
		if errs[g] != nil {
			return total, errs[g]
		}
		total.images += parts[g].images
		total.ops = append(total.ops, parts[g].ops...)
		total.attempted += parts[g].attempted
		total.failed += parts[g].failed
	}
	return total, ctx.Err()
}

func (w *serveWorkload) round(ctx context.Context, _ int) (roundResult, error) {
	return w.readers(ctx, w.e.server, w.e.plan.serveReads, func(rec int) ([]pcr.Sample, error) {
		return w.e.remote.ReadRecordEncoded(rec, pcr.Full)
	})
}

// ---- cache_tiers ----

// Phases of one cache_tiers cycle.
const (
	phaseCold     = "cold"      // q2 into empty tiers: every byte comes over the wire
	phaseWarmMem  = "warm_mem"  // q2 again: the memory tier serves
	phaseUpgrade  = "upgrade"   // Full over cached q2: only the delta moves
	phaseWarmDisk = "warm_disk" // Full again, and once more after a reopen: the disk tier serves
)

type cacheWorkload struct{ e *env }

// tiered is a dataset behind a memory and a disk tier, as either the facade
// or the traced composition builds it.
type tiered interface {
	scan(ctx context.Context, q int) (images int, err error)
	close() error
}

type facadeTiers struct{ ds *pcr.Dataset }

func (f facadeTiers) scan(ctx context.Context, q int) (int, error) {
	n := 0
	for _, err := range f.ds.ScanEncoded(ctx, q) {
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (f facadeTiers) close() error { return f.ds.Close() }

// cycle runs the phases once over a fresh disk cache directory and checks
// the §5 byte properties on the way: a cold pass moves the q2 prefixes, the
// upgrade moves exactly Full minus q2, and no warm pass moves anything.
func (w *cacheWorkload) cycle(ctx context.Context, srv *server, r *roundResult, open func(dir string) (tiered, error)) error {
	dir, err := os.MkdirTemp(w.e.work, "disk-tier-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var ds tiered
	pass := func(phase string, q int, wantWire int64) error {
		wire := srv.wireBytes()
		t := time.Now()
		if ds == nil {
			if ds, err = open(dir); err != nil {
				return err
			}
		}
		n, err := ds.scan(ctx, q)
		if err != nil {
			return err
		}
		r.ops = append(r.ops, msSince(t))
		r.phase[phase] += time.Since(t)
		r.phaseImgs[phase] += n
		r.images += n
		moved := srv.wireBytes() - wire
		r.bytes += moved
		r.check(n == w.e.plan.images && moved == wantWire,
			"%s pass at quality %d delivered %d images and moved %d bytes, want %d and %d", phase, q, n, moved, w.e.plan.images, wantWire)
		return nil
	}
	full, coarse := w.e.size[pcr.Full], w.e.size[q2]
	steps := []struct {
		phase  string
		q      int
		wire   int64
		reopen bool
	}{
		{phaseCold, q2, coarse, false},
		{phaseWarmMem, q2, 0, false},
		{phaseWarmMem, q2, 0, false},
		{phaseUpgrade, pcr.Full, full - coarse, false},
		{phaseWarmDisk, pcr.Full, 0, false},
		{phaseWarmDisk, pcr.Full, 0, false},
		{phaseWarmDisk, pcr.Full, 0, true}, // the reopen is part of this pass's time
	}
	for _, st := range steps {
		if st.reopen {
			if err := ds.close(); err != nil {
				return err
			}
			ds = nil
		}
		if err := pass(st.phase, st.q, st.wire); err != nil {
			if ds != nil {
				ds.close()
			}
			return err
		}
	}
	return ds.close()
}

func (w *cacheWorkload) cycles(ctx context.Context, srv *server, open func(dir string) (tiered, error)) (roundResult, error) {
	r := roundResult{phase: map[string]time.Duration{}, phaseImgs: map[string]int{}}
	start := time.Now()
	for c := 0; c < w.e.plan.cacheCycles; c++ {
		if err := w.cycle(ctx, srv, &r, open); err != nil {
			return r, err
		}
	}
	r.wall = time.Since(start)
	return r, nil
}

func (w *cacheWorkload) round(ctx context.Context, _ int) (roundResult, error) {
	return w.cycles(ctx, w.e.server, func(dir string) (tiered, error) {
		ds, err := pcr.OpenRemote(w.e.server.url,
			remoteOptions(pcr.WithCacheBytes(memTierBytes), pcr.WithDiskCache(dir, diskTierBytes))...)
		if err != nil {
			return nil, err
		}
		return facadeTiers{ds}, nil
	})
}

// ---- filtered_pushdown ----

type filterWorkload struct {
	e    *env
	plan pcr.FilterPlan // the index's price for the filter at Full
}

func newFilter(e *env) (*filterWorkload, error) {
	fp, err := e.remote.PlanFilter(e.in.filter(), pcr.Full)
	if err != nil {
		return nil, err
	}
	if fp.Selected == 0 || fp.RecordsSkipped != 0 {
		return nil, fmt.Errorf("bench: filter %v selects %d samples and skips %d records; the workload wants every record partly selected",
			e.in.filter(), fp.Selected, fp.RecordsSkipped)
	}
	return &filterWorkload{e: e, plan: fp}, nil
}

// passes runs filtered scans back to back; each must deliver exactly the
// selected samples and move exactly the bytes the index priced.
func (w *filterWorkload) passes(ctx context.Context, srv *server, scan func() iter.Seq2[pcr.Sample, error]) (roundResult, error) {
	var r roundResult
	start := time.Now()
	for k := 0; k < w.e.plan.filterPasses; k++ {
		wire := srv.wireBytes()
		t := time.Now()
		n := 0
		for s, err := range scan() {
			if err != nil {
				return r, err
			}
			if s.Label == filterLabels[0] || s.Label == filterLabels[1] {
				n++
			}
		}
		r.ops = append(r.ops, msSince(t))
		moved := srv.wireBytes() - wire
		r.check(n == w.plan.Selected && moved == w.plan.Bytes,
			"filtered pass delivered %d samples and moved %d bytes, the plan says %d and %d", n, moved, w.plan.Selected, w.plan.Bytes)
		r.images += n
		r.bytes += moved
	}
	r.wall = time.Since(start)
	return r, nil
}

func (w *filterWorkload) round(ctx context.Context, _ int) (roundResult, error) {
	return w.passes(ctx, w.e.server, func() iter.Seq2[pcr.Sample, error] {
		return w.e.remote.ScanEncoded(ctx, pcr.Full, pcr.WithFilter(w.e.in.filter()))
	})
}

// ---- ingest ----

type ingestWorkload struct{ e *env }

// recordWriter is the write path as either the facade or the traced
// composition offers it.
type recordWriter interface {
	Append(pcr.Sample) error
	Close() error
}

// ingestRecords is how many records' worth of input one ingest round
// writes. Rounds take the input in turn, a part each, so that rounds stay
// short (the calibrated clock tracks the machine between rounds, not inside
// them) while every part is written about equally often.
const ingestRecords = 4

// part returns the slice of the input round i writes.
func (w *ingestWorkload) part(i int) []pcr.Sample {
	in := w.e.in.samples
	size := ingestRecords * imagesPerRecord
	parts := max(len(in)/size, 1)
	lo := ((i%parts + parts) % parts) * size
	return in[lo:min(lo+size, len(in))]
}

// write appends samples to a fresh dataset, timing each record's worth of
// appends (the flush lands on the last of them). It returns the directory,
// which the caller removes.
func (w *ingestWorkload) write(samples []pcr.Sample, create func(dir string) (recordWriter, error)) (roundResult, string, error) {
	var r roundResult
	dir, err := os.MkdirTemp(w.e.work, "ingest-")
	if err != nil {
		return r, "", err
	}
	start := time.Now()
	wr, err := create(dir)
	if err != nil {
		return r, dir, err
	}
	t := time.Now()
	for i, s := range samples {
		if err := wr.Append(s); err != nil {
			return r, dir, err
		}
		if (i+1)%imagesPerRecord == 0 {
			r.ops = append(r.ops, msSince(t))
			r.attempted++
			t = time.Now()
		}
	}
	if err := wr.Close(); err != nil {
		return r, dir, err
	}
	r.wall = time.Since(start)
	r.images = len(samples)
	r.bytes, err = dirBytes(dir)
	return r, dir, err
}

// createDataset is the facade's write path.
func createDataset(dir string) (recordWriter, error) {
	return pcr.Create(dir, pcr.WithImagesPerRecord(imagesPerRecord))
}

func (w *ingestWorkload) round(_ context.Context, i int) (roundResult, error) {
	r, dir, err := w.write(w.part(i), createDataset)
	os.RemoveAll(dir)
	return r, err
}
