package pcr

import (
	"context"
	"image"
	"iter"

	"repro/internal/cache"
)

// This file is the one read pipeline behind every scan and every record
// read that decodes: Loader.Epoch, Probe.Batches, Dataset.ReadRecord, and
// Dataset.Scan and Dataset.ScanEncoded over every format. It has three
// stages — ScanEncoded runs the first two — and delivers strictly in plan
// order:
//
//	plan   — one planner, recordPlan, walks the records to visit and decides
//	         and prices from the index alone which are read and how (quality
//	         and scan group, filter selection, whole prefix or sparse gather,
//	         bytes, resume skip, cut-off). Each caller only fills it in: an
//	         order, a quality policy or constant, a filter, a skip, a need.
//	         One goroutine calls it, one record at a time. Dataset.PlanFilter
//	         is the same planner walked without the stages behind it.
//	fetch  — every planned read is carried out by the one record read,
//	         pcrReader.readRecord (a prefix through the cache tiers, or a
//	         filtered sparse gather), into a record lease, on one of up to
//	         readAhead fetch workers that live as long as the pipeline, and
//	         is handed on in plan order however the reads complete.
//	decode — WithPrefetchWorkers goroutines each take a run of up to runLen
//	         samples of one record and decode it in place, one completion
//	         signal per run: one worker decodes a run's samples back to back,
//	         so they share its decoder's tables and scan order (jpegc). Given
//	         a frame list (Loader.Epoch's), a worker decodes into frames the
//	         consumer has handed back. A pipeline without this stage hands a
//	         record over whole, still encoded.
//
// A baseline format (TFRecord, FilePerImage) has no records to plan: its
// per-sample stream, filtered after the read, takes the place of the first
// two stages (chunk). The consumer (Dataset.pipeline) receives completed
// runs in order, is the one place a scan observes cancellation and Close,
// and shuts all of it down when it returns.
//
// Every consumer copies a run's samples out before it asks for the next,
// so what carries them is the pipeline's to reuse: a run, with its
// completion signal, goes back to the pipeline's list once the consumer is
// done with it, and a read's slot once its read is handed on. A record
// read's lease travels with the record's last run and goes back once the
// consumer is done with that run, its streams left to the consumer, unless
// the consumer takes the lease off the run to give back later
// (Loader.Epoch). A steady-state pipeline allocates none of these per
// record or run.

const (
	// runLen is the decode stage's unit of work: long enough that a run's
	// hand-over (three channel operations) is noise beside
	// its decodes, short enough that a 32-image record still spreads over
	// several workers.
	runLen = 8
	// readAhead bounds the records that have been planned — quality
	// resolved, read issued — and not yet handed to the consumer in full.
	// It is a constant because throughput is flat in it once the next read
	// overlaps the current decode (2 is enough over loopback; 4 leaves
	// room for a store with real latency) and because it, not the worker
	// count, is what bounds the encoded bytes a pipeline holds.
	readAhead = 4
)

// recordRead is what one fetch delivers: a record's samples, still encoded,
// in the lease they were read into, with the read's accounting. A baseline
// format's run of samples has no lease.
type recordRead struct {
	samples []Sample
	lease   *recordLease
	bytes   int64 // record bytes the read covered
	quality int   // resolved quality it was read at
	err     error
}

// recordPlan is the plan stage, and the only one: every record-granular
// read — Scan and ScanEncoded, Loader.Epoch, Probe.Batches, ReadRecord and
// ReadRecordEncoded — is one of these walked by fetch, and PlanFilter is
// one walked without reading. It visits order once and decides per record,
// from the index alone, whether the record is read and how (readPlan): at
// what quality and scan group, which samples, whether as a whole prefix or
// a sparse gather, and what the read moves. Under a filter it adds that up
// in price, the plan's FilterPlan. One goroutine calls next.
type recordPlan struct {
	d     *Dataset
	order []int // records still to visit
	// policy is asked for each record's quality (FixedQuality for a
	// constant): about a record that is read and, under a filter, about
	// every record visited, since an empty record's accounting is in bytes
	// at a quality.
	policy QualityPolicy
	epoch  int // what the policy is told
	// filter, when set, restricts each record to the samples its side index
	// selects, and price is where the plan accounts, as it plans each read,
	// for what it selects and moves. Only the walking goroutine writes it;
	// the pipeline's closing channels order those writes before a drained
	// consumer reads it.
	filter Predicate
	price  FilterPlan
	// skip is what remains of a resume prefix, in samples. Records wholly
	// inside it are skipped without a read — their image counts come from
	// the index — so only the record straddling its end is read and
	// partially discarded.
	skip int
	// need, when positive, ends the plan once the records planned deliver
	// that many samples: no record beyond the cut-off is read.
	need    int
	planned int
}

// readPlan is one record read as recordPlan decided and priced it; the fetch
// stage only carries it out (pcrReader.readRecord).
type readPlan struct {
	rec     int
	quality int // resolved, as the read reports it
	group   int // the scan group read: quality clamped to what the record stores
	// sel marks the samples delivered; nil for every sample.
	sel []bool
	// sparse makes the read a gather of the selected samples' bytes rather
	// than a whole prefix (cache.Stack.Gather): their ranges, read locally,
	// or sel, shipped to a backend that takes it (remote pushdown).
	sparse bool
	bytes  int64 // what the read moves
	from   int   // selected samples that lie inside a resume prefix
	// delivers is how many samples the read delivers: those selected past
	// the resume prefix, at least one.
	delivers int
}

// next returns the next read to issue; ok is false at the end of the plan.
// After an error the plan is not walked further.
func (p *recordPlan) next() (read readPlan, ok bool, err error) {
	for len(p.order) > 0 && (p.need <= 0 || p.planned < p.need) {
		rec := p.order[0]
		p.order = p.order[1:]
		if read, ok, err = p.record(rec); ok || err != nil {
			return read, ok, err
		}
	}
	return readPlan{}, false, nil
}

// record is next's step for one record: its read, or ok false when nothing
// of it is to be delivered — the filter selects none of it, or all it would
// deliver lies inside the resume prefix.
//
// The read is a whole prefix unless a filter selects a proper subset of the
// record and no cache tier is mounted (the tiers are prefix-shaped: a sparse
// read could neither fill nor be served from one); then it is sparse,
// moving only the metadata section and the selected samples' slices.
func (p *recordPlan) record(rec int) (read readPlan, ok bool, err error) {
	r := p.d.pcr
	re, err := r.record(rec)
	if err != nil {
		return read, false, err
	}
	n := re.Samples
	if p.filter == nil && p.skip >= n {
		p.skip -= n
		return read, false, nil
	}
	q, err := p.d.resolveQuality(p.policy.RecordQuality(p.epoch, rec))
	if err != nil {
		return read, false, err
	}
	g := re.ClampGroup(q)
	read = readPlan{rec: rec, quality: q, group: g, bytes: re.Prefixes[g]}
	if p.filter != nil {
		full := read.bytes
		read.sel, n = matchSelection(p.filter, re.SampleIDs, re.SampleLabels)
		switch {
		case n == 0:
			read.bytes = 0
		case n == len(read.sel):
			read.sel = nil
		case !r.tiers.Cached():
			read.sparse = true
			if read.bytes, err = re.SampleBytes(g, read.sel); err != nil {
				return read, false, err
			}
		}
		// A record the filter empties is accounted whether or not a resume
		// skips it; any other, only when it is read.
		if n == 0 || p.skip < n {
			p.price.Selected += n
			p.price.Total += re.Samples
			p.price.Records++
			p.price.Bytes += read.bytes
			p.price.FullBytes += full
			if n == 0 {
				p.price.RecordsSkipped++
			}
		}
		if p.skip >= n {
			p.skip -= n
			return read, false, nil
		}
	}
	read.from = p.skip
	read.delivers = n - read.from
	p.skip = 0
	p.planned += read.delivers
	return read, true, nil
}

// run is up to runLen consecutive samples of one record, decoded in place by
// one worker — or, with no decode stage, a whole record's, as fetched. A run
// with err set carries no samples and ends the stream.
type run struct {
	samples []Sample
	err     error
	// done is signalled once samples are decoded, by one send that the
	// consumer receives, so the run can carry it again; nil when there is
	// nothing to wait for.
	done chan struct{}
	// bytes and quality are the read's accounting, carried by the first run
	// of each fetched record (quality > 0 marks it).
	bytes   int64
	quality int
	// lease, on the final run of a fetched record, is its read's: receiving
	// the run returns the record's read-ahead token.
	lease *recordLease
}

// pipeline is one running instance of the stages.
type pipeline struct {
	ctx    context.Context             // ends when the consumer returns
	out    chan *run                   // every run, in delivery order
	work   chan *run                   // the same runs, for the decode workers; nil without a decode stage
	tokens chan struct{}               // one per record planned and not yet consumed
	frames cache.FreeList[image.Image] // where the decode workers take frames from; nil for none
	// runs is the runs the consumer is done with, for emit to reuse: as
	// many as can be out at once, those queued for the consumer, the one
	// it holds and the one being queued.
	runs cache.FreeList[*run]
}

// pipeline runs source on its own goroutine under a fresh pipeline and
// yields the runs it emits, in order: decoded — into frames from frames,
// when it has them — or with decode false as they were fetched. It stops at
// the first failed run with that error, with ctx.Err() as soon as ctx is
// cancelled and with ErrClosed as soon as the dataset is closed — both win
// over runs already decoded — and never waits for a read: whatever it
// abandons (an early break included) winds down on its own, each fetch
// worker exiting once its read returns, and the leases of its reads are
// dropped. A run yielded is the pipeline's again once yield returns: the
// consumer copies out what it keeps, and its lease, if the consumer left it
// on the run, goes back with the streams left to the consumer.
func (d *Dataset) pipeline(ctx context.Context, decode bool, frames cache.FreeList[image.Image], source func(p *pipeline)) iter.Seq2[*run, error] {
	return func(yield func(*run, error) bool) {
		ictx, cancel := context.WithCancel(ctx)
		defer cancel()
		p := &pipeline{
			ctx: ictx,
			// Without a decode stage a run is a record: every one read ahead
			// has a place to wait for the consumer.
			out:    make(chan *run, readAhead),
			tokens: make(chan struct{}, readAhead),
			frames: frames,
		}
		if decode {
			workers := d.cfg.prefetchWorkers()
			// Two runs per worker ahead of the consumer — one in decode, one
			// queued behind it — keep every worker busy while the consumer
			// waits for the oldest.
			p.out = make(chan *run, 2*workers)
			p.work = make(chan *run, workers)
			for i := 0; i < workers; i++ {
				go p.decode()
			}
		}
		p.runs = make(cache.FreeList[*run], cap(p.out)+2)
		go func() {
			defer close(p.out)
			if decode {
				defer close(p.work)
			}
			source(p)
		}()

		// stopped is why the consumer must give up, if it must.
		stopped := func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if d.isClosed() {
				return errScanClosed
			}
			return nil
		}
		for {
			var r *run
			ok := false
			select {
			case r, ok = <-p.out:
			case <-ctx.Done():
			case <-d.closed:
			}
			if r != nil && r.done != nil {
				select {
				case <-r.done:
				case <-ctx.Done():
				case <-d.closed:
				}
			}
			if err := stopped(); err != nil {
				yield(nil, err)
				return
			}
			if !ok {
				return
			}
			if r.err != nil {
				yield(nil, r.err)
				return
			}
			if r.lease != nil {
				<-p.tokens
			}
			more := yield(r, nil)
			if r.lease != nil {
				d.pcr.give(r.lease, true)
			}
			if !more {
				return
			}
			*r = run{done: r.done}
			p.runs.Give(r)
		}
	}
}

// decode is one worker of the decode stage.
func (p *pipeline) decode() {
	for r := range p.work {
		// An abandoned pipeline drains its queue without decoding it.
		if r.err = p.ctx.Err(); r.err == nil {
			for i := range r.samples {
				if r.err = decodeJPEG(&r.samples[i], p.frames.Take()); r.err != nil {
					break
				}
			}
		}
		r.done <- struct{}{}
	}
}

// send queues r for the consumer and then, if it is to be decoded, for a
// worker; false means the pipeline is shutting down.
func (p *pipeline) send(r *run) bool {
	for _, ch := range [...]chan *run{p.out, p.work} {
		if ch == nil {
			continue
		}
		select {
		case ch <- r:
		case <-p.ctx.Done():
			return false
		}
	}
	return true
}

// emit cuts one delivery into runs and queues them, followed by the
// delivery's error if it has one. A record read's lease goes with its last
// run; a read that succeeds delivers at least one sample, since its index
// entry, which its parse agrees with, says so.
func (p *pipeline) emit(rr recordRead) bool {
	n := len(rr.samples)
	step := runLen
	if p.work == nil {
		step = max(n, 1)
	}
	for from := 0; from < n; from += step {
		to := min(from+step, n)
		r := p.runs.Take()
		if r == nil {
			r = new(run)
			if p.work != nil {
				r.done = make(chan struct{}, 1)
			}
		}
		r.samples = rr.samples[from:to:to]
		if to == n {
			r.lease = rr.lease
		}
		if from == 0 {
			r.bytes, r.quality = rr.bytes, rr.quality
		}
		if !p.send(r) {
			return false
		}
	}
	if rr.err == nil {
		return true
	}
	select {
	case p.out <- &run{err: rr.err}:
	case <-p.ctx.Done():
	}
	return false
}

// fetch is the source of a record-granular pipeline. One goroutine walks
// the plan, taking a token for each read it returns and queueing the read,
// with a slot for its result, for the fetch workers: up to readAhead of
// them, started as reads are queued and kept for the pipeline's life, so a
// scan's reads run on a few goroutines whose stacks have grown to what a
// read needs rather than a new one each. This one hands the results on in
// plan order, puts each slot back on the list the planner takes them from,
// and stops after the first failed read. Backend reads cannot be
// cancelled, so a read still in flight when the pipeline ends delivers
// into its buffered slot, nothing waits for it, and its worker exits then;
// a read still queued is not carried out.
func (p *pipeline) fetch(plan *recordPlan) {
	type fetchJob struct {
		read readPlan
		slot chan recordRead
	}
	// One slot and one queued job per token, so the planner's sends never
	// block; a slot whose read has been handed on is reused.
	slots := make(chan chan recordRead, readAhead)
	free := make(cache.FreeList[chan recordRead], readAhead)
	jobs := make(chan fetchJob, readAhead)
	worker := func() {
		for job := range jobs {
			if p.ctx.Err() == nil {
				job.slot <- plan.d.pcr.readRecord(&job.read)
			}
		}
	}
	go func() {
		defer close(slots)
		defer close(jobs)
		for workers := 0; ; {
			select {
			case p.tokens <- struct{}{}:
			case <-p.ctx.Done():
				return
			}
			read, ok, err := plan.next()
			if !ok && err == nil {
				return
			}
			slot := free.Take()
			if slot == nil {
				slot = make(chan recordRead, 1)
			}
			slots <- slot
			if err != nil {
				// A plan-time error is delivered in its turn, after every
				// sample planned before it.
				slot <- recordRead{err: err}
				return
			}
			jobs <- fetchJob{read, slot}
			if workers < readAhead {
				workers++
				go worker()
			}
		}
	}()
	for slot := range slots {
		select {
		case rr := <-slot:
			free.Give(slot)
			if !p.emit(rr) {
				return
			}
		case <-p.ctx.Done():
			return
		}
	}
}

// chunk is the source of a pipeline over a format with no record access:
// the format's per-sample encoded stream, the samples pred selects (every
// one when nil) cut into runs. The filter can only follow the read.
func (p *pipeline) chunk(seq iter.Seq2[Sample, error], pred Predicate) {
	buf := make([]Sample, 0, runLen)
	for s, err := range seq {
		if err != nil {
			p.emit(recordRead{samples: buf, err: err})
			return
		}
		if pred != nil && !pred.Matches(s.ID, s.Label) {
			continue
		}
		if buf = append(buf, s); len(buf) == runLen {
			if !p.emit(recordRead{samples: buf}) {
				return
			}
			buf = make([]Sample, 0, runLen)
		}
	}
	p.emit(recordRead{samples: buf})
}
