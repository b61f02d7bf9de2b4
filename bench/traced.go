package main

import (
	"context"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jpegc"
	"repro/internal/kvstore"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/pcr"
)

// tracedLayers is the benchmark's own composition of the read and write
// paths from each module's public calls — what pcr.Open, pcr.OpenRemote,
// Loader.Epoch and pcr.Create wire together, laid out flat so that a span
// can sit around every call. The facade rounds give the end-to-end numbers;
// these rounds say where the time of one delivered image goes.
type tracedLayers struct {
	e      *env
	tr     *tracer
	server *server       // over a timed DirBackend, behind a timing handler
	local  *core.Dataset // OpenDataset over a timed DirBackend
	remote *core.Dataset // OpenDatasetIndex over a timed client
	client *serve.ClusterClient

	acc accumulators
}

// accumulators sum the counters of parts that live for less than a workload
// (cache_tiers builds its tiers anew every cycle). They are zeroed before
// each workload's traced rounds.
type accumulators struct {
	cache      cache.Stats
	disk       diskcache.Stats
	cluster    serve.ClusterStats
	recoverDur time.Duration // diskcache.Wrap on a warm directory
	reopens    int
	ranges     int // filtered_pushdown: byte ranges planned, and for how many records
	rangeRecs  int
}

func newClient(url string) (*serve.ClusterClient, error) {
	c, err := serve.NewClusterClient([]string{url}, nil)
	if err != nil {
		return nil, err
	}
	c.SetHedgeDelay(-1)
	return c, nil
}

func (tl *tracedLayers) timedClient(c *serve.ClusterClient) *timedClient {
	return &timedClient{timedBackend{inner: c, tr: tl.tr, name: spanClientRange}, c}
}

func newTracedLayers(e *env) (*tracedLayers, error) {
	tl := &tracedLayers{e: e, tr: newTracer()}
	var err error
	if tl.server, err = startServer(e.dir, tl.tr); err != nil {
		return nil, err
	}
	if tl.local, err = core.OpenDataset(e.dir); err != nil {
		return nil, tl.closeAfter(err)
	}
	tl.local.SetBackend(&timedBackend{inner: tl.local.Backend(), tr: tl.tr, name: spanBackingRead})
	if tl.client, err = newClient(tl.server.url); err != nil {
		return nil, tl.closeAfter(err)
	}
	ix, err := tl.client.FetchIndex()
	if err != nil {
		tl.client.Close()
		return nil, tl.closeAfter(err)
	}
	if tl.remote, err = core.OpenDatasetIndex(ix, tl.timedClient(tl.client)); err != nil {
		tl.client.Close()
		return nil, tl.closeAfter(err)
	}
	return tl, nil
}

func (tl *tracedLayers) closeAfter(err error) error {
	tl.close()
	return err
}

func (tl *tracedLayers) close() error {
	var first error
	if tl.remote != nil {
		first = tl.remote.Close() // closes the client beneath it
	}
	if tl.local != nil {
		if err := tl.local.Close(); first == nil {
			first = err
		}
	}
	if err := tl.server.stop(); first == nil {
		first = err
	}
	return first
}

func (a *accumulators) addCluster(s serve.ClusterStats) {
	a.cluster.Hedges += s.Hedges
	a.cluster.Failovers += s.Failovers
	a.cluster.Refreshes += s.Refreshes
}

// materialize parses a record prefix and reassembles the selected samples'
// JPEG streams (all of them when sel is nil).
func (tl *tracedLayers) materialize(name string, prefix []byte, g int, sel []bool) ([]pcr.Sample, error) {
	i := tl.tr.start(spanMetaParse, name)
	meta, err := core.ParseRecordMeta(prefix)
	tl.tr.end(i, name)
	if err != nil {
		return nil, err
	}
	i = tl.tr.start(spanReassembly, name)
	defer tl.tr.end(i, name)
	out := make([]pcr.Sample, 0, len(meta.Samples))
	for si := range meta.Samples {
		if sel != nil && !sel[si] {
			continue
		}
		stream, err := meta.SampleJPEG(prefix, si, g)
		if err != nil {
			return nil, err
		}
		out = append(out, pcr.Sample{ID: meta.Samples[si].ID, Label: meta.Samples[si].Label, JPEG: stream})
	}
	return out, nil
}

// readRecord is the cacheless record read: one prefix read through the
// dataset's timed backend, then parse and reassembly.
func (tl *tracedLayers) readRecord(ds *core.Dataset, rec, g int) (samples []pcr.Sample, prefixLen int64, err error) {
	name, err := ds.RecordName(rec)
	if err != nil {
		return nil, 0, err
	}
	if prefixLen, err = ds.RecordPrefixLen(rec, g); err != nil {
		return nil, 0, err
	}
	prefix, err := ds.ReadRecordRange(rec, 0, prefixLen)
	if err != nil {
		return nil, 0, err
	}
	samples, err = tl.materialize(name, prefix, g, nil)
	return samples, prefixLen, err
}

// epoch is Loader.Epoch laid out flat: a producer reads records in a seeded
// order and hands every sample to at most P concurrent decodes; the consumer
// takes them in order and cuts batches of 32. *read accumulates the prefix
// bytes the producer read; it is safe to look at once the sequence has ended.
func (tl *tracedLayers) epoch(ctx context.Context, ds *core.Dataset, g int, seed int64, read *int64) iter.Seq2[pcr.Batch, error] {
	type job struct {
		s    pcr.Sample
		err  error
		done chan struct{}
	}
	return func(yield func(pcr.Batch, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		defer wg.Wait()
		defer cancel()
		p := parallelism()
		jobs := make(chan *job, p) // as deep as the facade's decode pool
		sem := make(chan struct{}, p)
		emit := func(j *job) bool {
			select {
			case jobs <- j:
				return true
			case <-ctx.Done():
				return false
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			for _, rec := range rand.New(rand.NewSource(seed)).Perm(ds.NumRecords()) {
				samples, n, err := tl.readRecord(ds, rec, g)
				if err != nil {
					done := make(chan struct{})
					close(done)
					emit(&job{err: err, done: done})
					return
				}
				*read += n
				name, _ := ds.RecordName(rec)
				for _, s := range samples {
					j := &job{s: s, done: make(chan struct{})}
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						return
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer close(j.done)
						defer func() { <-sem }()
						t := time.Now()
						j.s.Image, j.err = jpegc.Decode(j.s.JPEG)
						tl.tr.leaf(spanDecode, name, t)
					}()
					if !emit(j) {
						return
					}
				}
			}
		}()
		batch := make([]pcr.Sample, 0, 32)
		for j := range jobs {
			select {
			case <-j.done:
			case <-ctx.Done():
				yield(pcr.Batch{}, ctx.Err())
				return
			}
			if j.err != nil {
				yield(pcr.Batch{}, j.err)
				return
			}
			if batch = append(batch, j.s); len(batch) == cap(batch) {
				if !yield(pcr.Batch{Samples: batch}, nil) {
					return
				}
				batch = make([]pcr.Sample, 0, 32)
			}
		}
		if len(batch) > 0 {
			yield(pcr.Batch{Samples: batch}, nil)
		}
	}
}

func (w *trainWorkload) tracedRound(ctx context.Context, i int, tl *tracedLayers) (roundResult, error) {
	var r roundResult
	ds := tl.local
	if w.remote {
		ds = tl.remote
	}
	wire := tl.server.wireBytes()
	start := time.Now()
	for k := 0; k < w.epochs; k++ {
		var read int64
		epoch := int64(i*w.epochs + k)
		if err := w.consume(&r, tl.epoch(ctx, ds, w.e.group(w.quality), w.e.in.seed+epoch, &read)); err != nil {
			return r, err
		}
		if !w.remote {
			r.bytes += read
		}
	}
	r.wall = time.Since(start)
	if w.remote {
		r.bytes = tl.server.wireBytes() - wire
	}
	return r, nil
}

func (w *serveWorkload) tracedRound(ctx context.Context, _ int, tl *tracedLayers) (roundResult, error) {
	g := w.e.group(pcr.Full)
	return w.readers(ctx, tl.server, w.e.plan.serveReads, func(rec int) ([]pcr.Sample, error) {
		samples, _, err := tl.readRecord(tl.remote, rec, g)
		return samples, err
	})
}

// layerTiers is what pcr.OpenRemote builds for WithCacheBytes+WithDiskCache:
// memory LRU → disk tier → remote client, each behind a timer.
type layerTiers struct {
	tl     *tracedLayers
	client *serve.ClusterClient
	disk   *diskcache.Backend
	ds     *core.Dataset
	mem    *cache.Cache
}

func (tl *tracedLayers) openTiers(dir string) (tiered, error) {
	const key = "index" // the opens are on no record; the index handler's span uses this key too
	i := tl.tr.start(spanFetchIndex, key)
	client, err := newClient(tl.server.url)
	if err != nil {
		tl.tr.end(i, key)
		return nil, err
	}
	ix, err := client.FetchIndex()
	tl.tr.end(i, key)
	if err != nil {
		client.Close()
		return nil, err
	}
	gen, err := core.IndexFingerprint(ix)
	if err != nil {
		client.Close()
		return nil, err
	}
	t := time.Now()
	i = tl.tr.start(spanDiskOpen, key)
	disk, err := diskcache.Wrap(tl.timedClient(client), dir, diskTierBytes, gen)
	tl.tr.end(i, key)
	if err != nil {
		client.Close()
		return nil, err
	}
	if disk.Stats().Recovered > 0 {
		tl.acc.recoverDur += time.Since(t)
		tl.acc.reopens++
	}
	ds, err := core.OpenDatasetIndex(ix, &timedBackend{inner: disk, tr: tl.tr, name: spanDiskRead})
	if err != nil {
		disk.Close()
		return nil, err
	}
	mem, err := cache.New(memTierBytes, ds.ReadRecordRange)
	if err != nil {
		ds.Close()
		return nil, err
	}
	return &layerTiers{tl: tl, client: client, disk: disk, ds: ds, mem: mem}, nil
}

func (lt *layerTiers) scan(ctx context.Context, q int) (int, error) {
	tl, g, n := lt.tl, lt.tl.e.group(q), 0
	for rec := 0; rec < lt.ds.NumRecords() && ctx.Err() == nil; rec++ {
		name, err := lt.ds.RecordName(rec)
		if err != nil {
			return n, err
		}
		need, err := lt.ds.RecordPrefixLen(rec, g)
		if err != nil {
			return n, err
		}
		i := tl.tr.start(spanCacheGet, name)
		prefix, err := lt.mem.Get(rec, need)
		tl.tr.end(i, name)
		if err != nil {
			return n, err
		}
		samples, err := tl.materialize(name, prefix, g, nil)
		if err != nil {
			return n, err
		}
		n += len(samples)
	}
	return n, ctx.Err()
}

func (lt *layerTiers) close() error {
	a := &lt.tl.acc
	m, d := lt.mem.Stats(), lt.disk.Stats()
	a.cache.Hits += m.Hits
	a.cache.UpgradeHits += m.UpgradeHits
	a.cache.Misses += m.Misses
	a.cache.BytesFetched += m.BytesFetched
	a.cache.Evictions += m.Evictions
	a.disk.Hits += d.Hits
	a.disk.DeltaHits += d.DeltaHits
	a.disk.Misses += d.Misses
	a.disk.BytesFetched += d.BytesFetched
	a.disk.DeltaBytes += d.DeltaBytes
	a.disk.Evictions += d.Evictions
	a.disk.Recovered += d.Recovered
	a.addCluster(lt.client.Stats())
	i := lt.tl.tr.start(spanDiskClose, "index")
	defer lt.tl.tr.end(i, "index")
	return lt.ds.Close() // closes the disk tier and the client beneath it
}

func (w *cacheWorkload) tracedRound(ctx context.Context, _ int, tl *tracedLayers) (roundResult, error) {
	return w.cycles(ctx, tl.server, tl.openTiers)
}

// filteredScan is the cacheless pushdown read laid out flat: select from the
// side index, plan the byte ranges, fetch them in one request, scatter them
// back into a prefix-shaped buffer, parse and reassemble the selected.
func (tl *tracedLayers) filteredScan(ctx context.Context, pred pcr.Predicate) iter.Seq2[pcr.Sample, error] {
	ds, g := tl.remote, tl.e.group(pcr.Full)
	reader := ds.Backend().(core.SampleReader)
	return func(yield func(pcr.Sample, error) bool) {
		fail := func(err error) { yield(pcr.Sample{}, err) }
		for rec := 0; rec < ds.NumRecords(); rec++ {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			name, err := ds.RecordName(rec)
			if err != nil {
				fail(err)
				return
			}
			ids, labels, err := ds.SampleIndex(rec)
			if err != nil {
				fail(err)
				return
			}
			sel := make([]bool, len(ids))
			for k := range ids {
				sel[k] = pred.Matches(ids[k], labels[k])
			}
			full, err := ds.RecordPrefixLen(rec, g)
			if err != nil {
				fail(err)
				return
			}
			i := tl.tr.start(spanSampleRanges, name)
			ranges, err := ds.SampleRanges(rec, g, sel)
			tl.tr.end(i, name)
			if err != nil {
				fail(err)
				return
			}
			tl.acc.ranges += len(ranges)
			tl.acc.rangeRecs++
			concat, err := reader.ReadSamples(name, g, sel)
			if err != nil {
				fail(err)
				return
			}
			i = tl.tr.start(spanScatter, name)
			prefix, err := core.ScatterRanges(concat, ranges, full)
			tl.tr.end(i, name)
			if err != nil {
				fail(err)
				return
			}
			samples, err := tl.materialize(name, prefix, g, sel)
			if err != nil {
				fail(err)
				return
			}
			for _, s := range samples {
				if !yield(s, nil) {
					return
				}
			}
		}
	}
}

func (w *filterWorkload) tracedRound(ctx context.Context, _ int, tl *tracedLayers) (roundResult, error) {
	return w.passes(ctx, tl.server, func() iter.Seq2[pcr.Sample, error] {
		return tl.filteredScan(ctx, w.e.in.filter())
	})
}

// layerWriter is the write path laid out flat: transcode each input to
// progressive form, lay a record out with core.WriteRecordOpts, and put its
// index entry into the metadata store. The entry encoding follows
// core.DatasetWriter; verify re-opens the result through the facade, so a
// drift between the two fails the run instead of skewing it.
type layerWriter struct {
	tl      *tracedLayers
	dir     string
	db      *kvstore.Store
	pending []core.Sample
	records int
	images  int
	groups  int
}

func (tl *tracedLayers) createDataset(dir string) (recordWriter, error) {
	db, err := kvstore.Open(filepath.Join(dir, "meta"), nil)
	if err != nil {
		return nil, err
	}
	return &layerWriter{tl: tl, dir: dir, db: db}, nil
}

func (w *layerWriter) recordName() string { return fmt.Sprintf("record-%05d.pcr", w.records) }

func (w *layerWriter) Append(s pcr.Sample) error {
	name := w.recordName()
	i := w.tl.tr.start(spanTranscode, name)
	data, err := jpegc.Transcode(s.JPEG, &jpegc.Options{Progressive: true})
	w.tl.tr.end(i, name)
	if err != nil {
		return err
	}
	w.pending = append(w.pending, core.Sample{ID: s.ID, Label: s.Label, JPEG: data})
	if len(w.pending) == imagesPerRecord {
		return w.flush()
	}
	return nil
}

func (w *layerWriter) put(key string, val []byte) error {
	i := w.tl.tr.start(spanKVPut, key)
	defer w.tl.tr.end(i, key)
	return w.db.Put([]byte(key), val)
}

func (w *layerWriter) flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	name := w.recordName()
	i := w.tl.tr.start(spanWriteRecord, name)
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		w.tl.tr.end(i, name)
		return err
	}
	meta, err := core.WriteRecordOpts(f, w.pending, nil)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	w.tl.tr.end(i, name)
	if err != nil {
		return err
	}
	enc := wire.NewEncoder(nil)
	enc.String(1, name)
	enc.Uint64(2, uint64(len(w.pending)))
	prefixes := make([]uint64, meta.NumGroups+1)
	for g := range prefixes {
		n, err := meta.PrefixLen(g)
		if err != nil {
			return err
		}
		prefixes[g] = uint64(n)
	}
	enc.PackedUint64(3, prefixes)
	var ids, labels, lens []uint64
	for _, s := range meta.Samples {
		ids = append(ids, uint64(s.ID))
		labels = append(labels, uint64(s.Label))
		for _, n := range s.GroupLens {
			lens = append(lens, uint64(n))
		}
	}
	enc.PackedUint64(4, ids)
	enc.PackedUint64(5, labels)
	enc.PackedUint64(6, lens)
	if err := w.put(fmt.Sprintf("record/%05d", w.records), enc.Encode()); err != nil {
		return err
	}
	w.groups = max(w.groups, meta.NumGroups)
	w.images += len(w.pending)
	w.records++
	w.pending = w.pending[:0]
	return nil
}

func (w *layerWriter) Close() error {
	if err := w.flush(); err != nil {
		w.db.Close()
		return err
	}
	enc := wire.NewEncoder(nil)
	enc.Uint64(1, uint64(w.records))
	enc.Uint64(2, uint64(w.groups))
	enc.Uint64(3, uint64(w.images))
	if err := w.put("dataset", enc.Encode()); err != nil {
		w.db.Close()
		return err
	}
	return w.db.Close()
}

func (w *ingestWorkload) tracedRound(ctx context.Context, i int, tl *tracedLayers) (roundResult, error) {
	r, dir, err := w.write(w.part(i), tl.createDataset)
	if err == nil {
		err = w.checkOutput(ctx, dir, w.part(i))
	}
	os.RemoveAll(dir)
	return r, err
}

// timeOpens times what set-up is made of, one call each: the metadata store,
// the dataset open above it, an index parse, the facade's two opens, and an
// index fetch with the handler's share of it.
func (tl *tracedLayers) timeOpens() (map[string]float64, error) {
	ms := make(map[string]float64)
	timed := func(key string, open func() (io.Closer, error)) error {
		t := time.Now()
		c, err := open()
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		ms[key] = msSince(t)
		return c.Close()
	}
	data, err := core.EncodeIndex(tl.local.Index())
	if err != nil {
		return nil, err
	}
	client, err := newClient(tl.server.url)
	if err != nil {
		return nil, err
	}
	tl.tr.setRound("setup", 0)
	mark := tl.tr.mark()
	for _, step := range []struct {
		key  string
		open func() (io.Closer, error)
	}{
		{"kvstore.open_ms", func() (io.Closer, error) { return kvstore.Open(filepath.Join(tl.e.dir, "meta"), nil) }},
		{"core.open_dataset_ms", func() (io.Closer, error) { return core.OpenDataset(tl.e.dir) }},
		{"core.index_parse_ms", func() (io.Closer, error) { _, err := core.ParseIndex(data); return io.NopCloser(nil), err }},
		{"pcr.open_ms", func() (io.Closer, error) { return pcr.Open(tl.e.dir) }},
		{"pcr.open_remote_ms", func() (io.Closer, error) { return pcr.OpenRemote(tl.server.url, remoteOptions()...) }},
		{"serve.client_fetch_index_ms", func() (io.Closer, error) { _, err := client.FetchIndex(); return client, err }},
	} {
		if err := timed(step.key, step.open); err != nil {
			return nil, err
		}
	}
	var handled, n float64
	spans := tl.tr.since(mark)
	for i, d := range selfTimes(spans) {
		if spans[i].Name == spanHandleIndex {
			handled += float64(d) / 1e6
			n++
		}
	}
	ms["serve.index_handle_ms"] = handled / n
	return ms, nil
}
