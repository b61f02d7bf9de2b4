package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/queueing"
	"repro/internal/serve"
)

// metric describes one number the benchmark prints. The same tables are in
// BENCHMARK.json; TestBenchmarkJSON holds the two together.
type metric struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEndMetrics are what a user of the system sees, reported for every
// workload. Times are on the calibrated clock (clock.go) and still spread by
// several per cent between runs on a shared box, so their bounds are the
// widest the contract allows; the byte counts repeat exactly.
var endToEndMetrics = []metric{
	{"setup_s", "s", false, 0.25},
	{"images_per_s", "1/s", true, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"bytes_per_image", "B/image", false, 0.01},
	{"alloc_bytes_per_image", "B/image", false, 0.02},
	{"stored_bytes_per_input_byte", "B/B", false, 0.01},
}

// perLayerMetrics are the layers' own numbers. The first block is the time
// budget of one delivered image: self time of the spans of that name, per
// image the traced rounds delivered, so a layer a workload does not use
// reads 0 there.
var perLayerMetrics = []metric{
	{spanBackingRead + "_us_per_image", "us/image", false, 0},
	{spanMetaParse + "_us_per_image", "us/image", false, 0},
	{spanReassembly + "_us_per_image", "us/image", false, 0},
	{spanSampleRanges + "_us_per_image", "us/image", false, 0},
	{spanScatter + "_us_per_image", "us/image", false, 0},
	{spanWriteRecord + "_us_per_image", "us/image", false, 0},
	{spanDecode + "_us_per_image", "us/image", false, 0},
	{spanTranscode + "_us_per_image", "us/image", false, 0},
	{spanCacheGet + "_us_per_image", "us/image", false, 0},
	{spanDiskRead + "_us_per_image", "us/image", false, 0},
	{spanDiskOpen + "_us_per_image", "us/image", false, 0},
	{spanDiskClose + "_us_per_image", "us/image", false, 0},
	{spanHandle + "_us_per_image", "us/image", false, 0},
	{spanHandlePush + "_us_per_image", "us/image", false, 0},
	{spanHandleIndex + "_us_per_image", "us/image", false, 0},
	{spanClientRange + "_us_per_image", "us/image", false, 0},
	{spanClientSample + "_us_per_image", "us/image", false, 0},
	{spanFetchIndex + "_us_per_image", "us/image", false, 0},
	{spanKVPut + "_us_per_image", "us/image", false, 0},

	{"core.ranges_per_record", "count", false, 0},
	{"core.open_dataset_ms", "ms", false, 0},
	{"core.index_parse_ms", "ms", false, 0},
	{"jpegc.decode_solo_us_per_image", "us/image", false, 0},
	{"jpegc.stdlib_decode_us_per_image", "us/image", false, 0},
	{"jpegc.decode_alloc_bytes_per_image", "B/image", false, 0},
	{"jpegc.decode_allocs_per_image", "count", false, 0},
	{"jpegc.decode_busy_share", "share", true, 0},
	{"jpegc.encode_us_per_image", "us/image", false, 0},
	{"cache.hit_ratio", "share", true, 0},
	{"cache.upgrade_hits", "count", true, 0},
	{"cache.evictions", "count", false, 0},
	{"cache.bytes_fetched", "B", false, 0},
	{"cache.warm_mem_images_per_s", "1/s", true, 0},
	{"diskcache.hit_ratio", "share", true, 0},
	{"diskcache.delta_hits", "count", true, 0},
	{"diskcache.delta_bytes", "B", false, 0},
	{"diskcache.bytes_fetched", "B", false, 0},
	{"diskcache.evictions", "count", false, 0},
	{"diskcache.recover_ms", "ms", false, 0},
	{"diskcache.recovered_entries", "count", true, 0},
	{"diskcache.cold_images_per_s", "1/s", true, 0},
	{"diskcache.upgrade_images_per_s", "1/s", true, 0},
	{"diskcache.warm_disk_images_per_s", "1/s", true, 0},
	{"serve.requests", "count", false, 0},
	{"serve.bytes_served", "B", false, 0},
	{"serve.bytes_read", "B", false, 0},
	{"serve.hot_cache_hit_ratio", "share", true, 0},
	{"serve.errors", "count", false, 0},
	{"serve.pushdown_bytes_saved", "B", true, 0},
	{"serve.index_handle_ms", "ms", false, 0},
	{"serve.client_fetch_index_ms", "ms", false, 0},
	{"serve.client_hedged_reads", "count", false, 0},
	{"serve.client_failovers", "count", false, 0},
	{"serve.client_membership_refreshes", "count", false, 0},
	{"kvstore.open_ms", "ms", false, 0},
	{"pcr.open_ms", "ms", false, 0},
	{"pcr.open_remote_ms", "ms", false, 0},
	{"pcr.decode_ceiling_share", "share", true, 0},
	{"pcr.stall_share", "share", false, 0},
	{"pcr.op_tail_ms", "ms", false, 0},
	{"pcr.op_tail_percentile", "%", true, 0},
	{"queueing.predicted_images_per_s", "1/s", true, 0},
	{"queueing.predicted_over_measured", "share", false, 0},
	{"trace.overhead_share", "share", false, 0},
	{"trace.coverage_share", "share", true, 0},
	{"trace.spans", "count", false, 0},
	{"clock.slowness", "share", false, 0},
}

// report is one whole run, as -out writes it and -compare reads it.
type report struct {
	Seed      int64             `json:"seed"`
	P         int               `json:"p"`
	Seconds   float64           `json:"seconds"`
	Images    int               `json:"images"`
	Workloads []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name        string             `json:"name"`
	Why         string             `json:"why"`
	Rounds      int                `json:"rounds"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	VerifyError string             `json:"verify_error,omitempty"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`

	ops []float64 // every operation's latency, for the tail
}

func (w *workloadReport) correct() bool { return w.VerifyError == "" && w.Failed == 0 }

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if !w.correct() {
			return false
		}
	}
	return true
}

func exact(v float64, n int) summary { return summary{Median: v, Q1: v, Q3: v, N: n} }

// endToEnd reduces the facade rounds to the end-to-end metrics: a timing is
// the median round, with the quartiles over rounds beside it.
func (w *workloadReport) endToEnd(e *env, rounds []roundResult, allocs, setups []float64) {
	var rate, p50 []float64
	var images int
	var bytes int64
	for _, r := range rounds {
		rate = append(rate, float64(r.images)/(r.wall.Seconds()*r.clock))
		p50 = append(p50, summarize(r.ops).Median*r.clock)
		images += r.images
		bytes += r.bytes
		w.Attempted += r.attempted
		w.Failed += r.failed
		for _, ms := range r.ops {
			w.ops = append(w.ops, ms*r.clock)
		}
	}
	if w.VerifyError != "" {
		// A failed correctness check fails the operations it vouched for.
		w.Failed = w.Attempted
	}
	w.Rounds = len(rounds)
	w.EndToEnd = map[string]summary{
		"setup_s":                     summarize(setups),
		"images_per_s":                summarize(rate),
		"op_p50_ms":                   summarize(p50),
		"bytes_per_image":             exact(float64(bytes)/float64(images), len(rounds)),
		"alloc_bytes_per_image":       summarize(allocs),
		"stored_bytes_per_input_byte": exact(float64(e.stored)/float64(e.in.bytes), 1),
	}
}

// liveCounters are the counters of the traced phase's long-lived parts,
// snapshotted around one workload's traced rounds.
type liveCounters struct {
	srv    serve.Stats
	client serve.ClusterStats
}

func (tl *tracedLayers) live() liveCounters {
	tl.server.wireBytes() // wait for handlers still counting
	return liveCounters{tl.server.srv.Stats(), tl.client.Stats()}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer reduces one workload's traced rounds — spans, counters, and the
// codec measurements of the correctness pass — to the per-layer metrics.
func (w *workloadReport) perLayer(e *env, m *measured, tl *tracedLayers, spans []span, before liveCounters, mc micro, opens map[string]float64) {
	v := make(map[string]float64, len(perLayerMetrics))
	var images, calibrated float64
	var wall time.Duration
	for _, r := range m.traced {
		images += float64(r.images)
		wall += r.wall
		calibrated += r.wall.Seconds() * r.clock
	}
	// Spans are raw nanoseconds, in the trace file too; what is reported of
	// them is put on the calibrated clock like every other time.
	factor := calibrated / wall.Seconds()
	v["clock.slowness"] = 1 / factor
	p, lanes := float64(parallelism()), float64(m.w.lanes())
	self := selfByName(spans)
	var covered, readPath int64
	for name, ns := range self {
		v[name+"_us_per_image"] = float64(ns) / 1e3 / images * factor
		covered += ns
		if name != spanDecode {
			readPath += ns
		}
	}
	v["trace.spans"] = float64(len(spans))
	v["trace.coverage_share"] = float64(covered) / (wall.Seconds() * 1e9 * lanes)
	measured := w.EndToEnd["images_per_s"].Median
	v["trace.overhead_share"] = measured/(images/calibrated) - 1

	for k, ms := range opens {
		v[k] = ms
	}
	v["jpegc.encode_us_per_image"] = e.in.encodeUS
	v["jpegc.decode_solo_us_per_image"] = mc.decodeUS
	v["jpegc.stdlib_decode_us_per_image"] = mc.stdlibUS
	v["jpegc.decode_alloc_bytes_per_image"] = mc.decodeAllocBytes
	v["jpegc.decode_allocs_per_image"] = mc.decodeAllocs

	if decode := self[spanDecode]; decode > 0 {
		// train_*: how busy the decode workers were, how close the facade
		// comes to what they could deliver, and what the paper's two-stage
		// model (App. A.2) predicts from the measured read path and decode.
		v["jpegc.decode_busy_share"] = float64(decode) / (wall.Seconds() * 1e9 * p)
		ceiling := p / (float64(decode) / 1e9 / images * factor)
		v["pcr.decode_ceiling_share"] = measured / ceiling
		bytesPerImage := w.EndToEnd["bytes_per_image"].Median
		pipe := queueing.Pipeline{BandwidthBps: bytesPerImage * images / (float64(readPath) / 1e9 * factor), ComputeImagesPerSec: ceiling}
		if predicted, err := pipe.SystemThroughput(bytesPerImage); err == nil {
			v["queueing.predicted_images_per_s"] = predicted
			v["queueing.predicted_over_measured"] = predicted / measured
		}
	}
	var stall, facadeWall time.Duration
	phase, phaseImgs := map[string]float64{}, map[string]int{}
	for _, r := range m.rounds {
		stall += r.stall
		facadeWall += r.wall
		for k, d := range r.phase {
			phase[k] += d.Seconds() * r.clock
			phaseImgs[k] += r.phaseImgs[k]
		}
	}
	v["pcr.stall_share"] = stall.Seconds() / facadeWall.Seconds()
	v["pcr.op_tail_percentile"], v["pcr.op_tail_ms"] = tail(w.ops)
	for name, ph := range map[string]string{"cache.warm_mem_images_per_s": phaseWarmMem, "diskcache.cold_images_per_s": phaseCold,
		"diskcache.upgrade_images_per_s": phaseUpgrade, "diskcache.warm_disk_images_per_s": phaseWarmDisk} {
		if d := phase[ph]; d > 0 {
			v[name] = float64(phaseImgs[ph]) / d
		}
	}

	a := tl.acc
	v["core.ranges_per_record"] = ratio(int64(a.ranges), int64(a.rangeRecs))
	v["cache.hit_ratio"] = ratio(a.cache.Hits, a.cache.Hits+a.cache.UpgradeHits+a.cache.Misses)
	v["cache.upgrade_hits"] = float64(a.cache.UpgradeHits)
	v["cache.evictions"] = float64(a.cache.Evictions)
	v["cache.bytes_fetched"] = float64(a.cache.BytesFetched)
	v["diskcache.hit_ratio"] = ratio(a.disk.Hits, a.disk.Hits+a.disk.DeltaHits+a.disk.Misses)
	v["diskcache.delta_hits"] = float64(a.disk.DeltaHits)
	v["diskcache.delta_bytes"] = float64(a.disk.DeltaBytes)
	v["diskcache.bytes_fetched"] = float64(a.disk.BytesFetched)
	v["diskcache.evictions"] = float64(a.disk.Evictions)
	v["diskcache.recovered_entries"] = float64(a.disk.Recovered)
	if a.reopens > 0 {
		v["diskcache.recover_ms"] = a.recoverDur.Seconds() * 1e3 / float64(a.reopens) * factor
	}
	now := tl.live()
	srv, was := now.srv, before.srv
	v["serve.requests"] = float64(srv.Requests - was.Requests)
	v["serve.bytes_served"] = float64(srv.BytesServed - was.BytesServed)
	v["serve.bytes_read"] = float64(srv.BytesRead - was.BytesRead)
	hits := srv.Cache.Hits - was.Cache.Hits
	v["serve.hot_cache_hit_ratio"] = ratio(hits, hits+srv.Cache.UpgradeHits-was.Cache.UpgradeHits+srv.Cache.Misses-was.Cache.Misses)
	v["serve.errors"] = float64(srv.Errors - was.Errors)
	v["serve.pushdown_bytes_saved"] = float64(srv.PushdownBytesSaved - was.PushdownBytesSaved)
	v["serve.client_hedged_reads"] = float64(a.cluster.Hedges + now.client.Hedges - before.client.Hedges)
	v["serve.client_failovers"] = float64(a.cluster.Failovers + now.client.Failovers - before.client.Failovers)
	v["serve.client_membership_refreshes"] = float64(a.cluster.Refreshes + now.client.Refreshes - before.client.Refreshes)
	w.PerLayer = v
}

// driverLine is the object the driver reads from the last line of output.
func (w *workloadReport) driverLine(traced bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if traced {
		for _, m := range perLayerMetrics {
			metrics[m.name] = value{w.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			metrics[m.name] = value{w.EndToEnd[m.name].Median, m.unit}
		}
	}
	return map[string]any{"correct": w.correct(), "attempted": max(w.Attempted, 1), "failed": w.Failed, "metrics": metrics}
}

// printReport prints every metric of every workload by name, with its unit.
func printReport(out io.Writer, rep *report) {
	fmt.Fprintf(out, "bench-v1: seed %d, %d images of %d×%d, %d per record; P=%d; %.0f s per workload\n",
		rep.Seed, rep.Images, imageSize, imageSize, imagesPerRecord, rep.P, rep.Seconds)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range rep.Workloads {
		fmt.Fprintf(tw, "\n%s\t%s\n", w.Name, w.Why)
		verdict := "correct"
		if !w.correct() {
			verdict = "INCORRECT " + w.VerifyError
		}
		fmt.Fprintf(tw, "  rounds %d\tattempted %d\tfailed %d\t%s\n", w.Rounds, w.Attempted, w.Failed, verdict)
		fmt.Fprintf(tw, "  end to end\tmedian\tq1\tq3\tn\tunit\n")
		for _, m := range endToEndMetrics {
			s := w.EndToEnd[m.name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", m.name, s.Median, s.Q1, s.Q3, s.N, m.unit)
		}
		if w.PerLayer == nil {
			continue
		}
		fmt.Fprintf(tw, "  per layer\tvalue\t\t\t\tunit\n")
		for _, m := range perLayerMetrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t\t\t\t%s\n", m.name, w.PerLayer[m.name], m.unit)
		}
	}
	tw.Flush()
}

// printComparison prints one row per workload and end-to-end metric with
// both medians, both spreads and the verdict against the metric's bound. It
// reports whether no row is worse or unresolved.
func printComparison(out io.Writer, a, b *report) bool {
	ok := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta\tb\tchange\tspread a\tspread b\tbound\tverdict\n")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range endToEndMetrics {
				sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
				verdict := compareBound(sa, sb, m.higher, m.bound)
				ok = ok && verdict == verdictSame
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n", wa.Name, m.name, m.unit,
					sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, 100*sa.spread(), 100*sb.spread(), 100*m.bound, verdict)
			}
		}
	}
	tw.Flush()
	return ok
}
