package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/jpeg"
	"iter"
	"os"
	"runtime"
	"time"

	"repro/internal/jpegc"
	"repro/pcr"
)

// qualities are the levels the correctness pass compares across tiers.
var qualities = []int{q2, q5, pcr.Full}

// prepare records what the checks compare against: the dataset's size on
// disk and at each quality, and the digest of every sample as the local
// cacheless reader delivers it. Every other path must deliver those bytes.
func (e *env) prepare(ctx context.Context) error {
	var err error
	if e.stored, err = dirBytes(e.dir); err != nil {
		return err
	}
	e.size = make(map[int]int64)
	e.golden = make(map[int][]digest)
	for _, q := range qualities {
		if e.size[q], err = e.local.SizeAtQuality(q); err != nil {
			return err
		}
		for s, err := range e.local.ScanEncoded(ctx, q) {
			if err != nil {
				return err
			}
			if s.ID != int64(len(e.golden[q])) || s.Label != e.in.samples[s.ID].Label {
				return fmt.Errorf("bench: local scan at quality %d delivered sample %d (label %d) at position %d", q, s.ID, s.Label, len(e.golden[q]))
			}
			e.golden[q] = append(e.golden[q], sampleDigest(s))
		}
		if len(e.golden[q]) != len(e.in.samples) {
			return fmt.Errorf("bench: local scan at quality %d delivered %d of %d samples", q, len(e.golden[q]), len(e.in.samples))
		}
	}
	return nil
}

func all(int64) bool { return true }

// matches checks that seq delivers exactly the samples want selects, each
// once, each byte-identical to what the local cacheless reader delivered at
// quality q.
func (e *env) matches(what string, q int, seq iter.Seq2[pcr.Sample, error], want func(id int64) bool) error {
	golden := e.golden[q]
	seen := make([]bool, len(golden))
	for s, err := range seq {
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if s.ID < 0 || int(s.ID) >= len(golden) || seen[s.ID] || !want(s.ID) {
			return fmt.Errorf("%s: sample %d is unknown, unwanted or delivered twice", what, s.ID)
		}
		seen[s.ID] = true
		if sampleDigest(s) != golden[s.ID] {
			return fmt.Errorf("%s: sample %d differs from the local cacheless read at quality %d", what, s.ID, q)
		}
	}
	for id := range seen {
		if want(int64(id)) && !seen[id] {
			return fmt.Errorf("%s: sample %d was not delivered", what, id)
		}
	}
	return nil
}

// micro holds single-goroutine measurements of the codec on fixed samples,
// taken while checking it against the standard library's decoder.
type micro struct {
	decodeUS         float64 // jpegc.Decode, uncontended
	stdlibUS         float64 // image/jpeg.Decode on the same bytes
	decodeAllocBytes float64
	decodeAllocs     float64
	mad              float64 // worst mean absolute difference between the two
}

const microSamples = 64

// meanAbsDiff is the mean absolute difference per channel between two
// decodes of one image.
func meanAbsDiff(a, b image.Image) (float64, error) {
	if a.Bounds() != b.Bounds() {
		return 0, fmt.Errorf("bounds %v and %v differ", a.Bounds(), b.Bounds())
	}
	var sum, n float64
	r := a.Bounds()
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			ar, ag, ab, _ := a.At(x, y).RGBA()
			br, bg, bb, _ := b.At(x, y).RGBA()
			for _, d := range [3]int{int(ar>>8) - int(br>>8), int(ag>>8) - int(bg>>8), int(ab>>8) - int(bb>>8)} {
				sum += float64(max(d, -d))
				n++
			}
		}
	}
	return sum / n, nil
}

// checkCodec decodes microSamples evenly spaced samples at quality q with
// jpegc and with image/jpeg and requires the pixels to agree within one
// level on average (an integer IDCT passes, a wrong one does not). At full
// quality the transcode to progressive form must also have been lossless:
// the reassembled stream and the baseline input decode alike.
func (e *env) checkCodec(ctx context.Context, q int) (micro, error) {
	var m micro
	step := max(len(e.in.samples)/microSamples, 1)
	var streams [][]byte
	var ids []int64
	for s, err := range e.local.ScanEncoded(ctx, q) {
		if err != nil {
			return m, err
		}
		if int(s.ID)%step == 0 && len(streams) < microSamples {
			streams = append(streams, s.JPEG)
			ids = append(ids, s.ID)
		}
	}
	slowness := e.in.yard.slot(1)
	ours := make([]image.Image, len(streams))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i, data := range streams {
		img, err := jpegc.Decode(data)
		if err != nil {
			return m, fmt.Errorf("jpegc.Decode of sample %d at quality %d: %w", ids[i], q, err)
		}
		ours[i] = img
	}
	m.decodeUS = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(streams))
	runtime.ReadMemStats(&after)
	m.decodeAllocBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(streams))
	m.decodeAllocs = float64(after.Mallocs-before.Mallocs) / float64(len(streams))

	var stdlibDur time.Duration
	for i, data := range streams {
		t := time.Now()
		ref, err := jpeg.Decode(bytes.NewReader(data))
		stdlibDur += time.Since(t)
		if err != nil {
			return m, fmt.Errorf("image/jpeg.Decode of sample %d at quality %d: %w", ids[i], q, err)
		}
		d, err := meanAbsDiff(ours[i], ref)
		if err != nil {
			return m, fmt.Errorf("sample %d at quality %d: %w", ids[i], q, err)
		}
		m.mad = max(m.mad, d)
		if q != pcr.Full {
			continue
		}
		input, err := jpeg.Decode(bytes.NewReader(e.in.samples[ids[i]].JPEG))
		if err != nil {
			return m, fmt.Errorf("image/jpeg.Decode of input %d: %w", ids[i], err)
		}
		if d, err = meanAbsDiff(ref, input); err != nil {
			return m, fmt.Errorf("sample %d against its input: %w", ids[i], err)
		}
		if d > 1 {
			return m, fmt.Errorf("sample %d: the stored full-quality stream differs from its input by %.3f levels", ids[i], d)
		}
	}
	m.stdlibUS = float64(stdlibDur.Nanoseconds()) / 1e3 / float64(len(streams))
	factor := clock(slowness, e.in.yard.slot(1))
	m.decodeUS *= factor
	m.stdlibUS *= factor
	if m.mad > 1 {
		return m, fmt.Errorf("jpegc.Decode differs from image/jpeg by %.3f levels at quality %d, at most 1.0 allowed", m.mad, q)
	}
	return m, nil
}

// verifyRemote checks that the cacheless remote path delivers the local
// bytes at every quality; the remote workloads all stand on it.
func (e *env) verifyRemote(ctx context.Context) error {
	for _, q := range qualities {
		if err := e.matches("remote scan", q, e.remote.ScanEncoded(ctx, q), all); err != nil {
			return err
		}
	}
	return nil
}

func (w *trainWorkload) verify(ctx context.Context) error {
	samples := func(yield func(pcr.Sample, error) bool) {
		for b, err := range w.loader.Epoch(ctx, -1) {
			if err != nil {
				yield(pcr.Sample{}, err)
				return
			}
			for _, s := range b.Samples {
				if s.Image == nil {
					err = fmt.Errorf("sample %d arrived undecoded", s.ID)
				}
				if !yield(s, err) || err != nil {
					return
				}
			}
		}
	}
	return w.e.matches("loader epoch", w.quality, samples, all)
}

func (w *serveWorkload) verify(ctx context.Context) error {
	records := func(yield func(pcr.Sample, error) bool) {
		for rec := 0; rec < w.e.remote.NumRecords() && ctx.Err() == nil; rec++ {
			samples, err := w.e.remote.ReadRecordEncoded(rec, pcr.Full)
			if err != nil {
				yield(pcr.Sample{}, err)
				return
			}
			for _, s := range samples {
				if !yield(s, nil) {
					return
				}
			}
		}
	}
	return w.e.matches("remote record reads", pcr.Full, records, all)
}

// verify walks one cache_tiers cycle and requires every tier — memory, disk,
// disk after a reopen — to deliver the local cacheless bytes.
func (w *cacheWorkload) verify(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.e.work, "disk-tier-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*pcr.Dataset, error) {
		return pcr.OpenRemote(w.e.server.url,
			remoteOptions(pcr.WithCacheBytes(memTierBytes), pcr.WithDiskCache(dir, diskTierBytes))...)
	}
	ds, err := open()
	if err != nil {
		return err
	}
	for _, step := range []struct {
		what string
		q    int
	}{{"cold fill", q2}, {"memory tier", q2}, {"delta upgrade", pcr.Full}, {"disk tier", pcr.Full}, {"disk tier after reopen", pcr.Full}} {
		if step.what == "disk tier after reopen" {
			if err := ds.Close(); err != nil {
				return err
			}
			if ds, err = open(); err != nil {
				return err
			}
		}
		if err := w.e.matches(step.what, step.q, ds.ScanEncoded(ctx, step.q), all); err != nil {
			ds.Close()
			return err
		}
	}
	st, _ := ds.DiskCacheStats()
	if err := ds.Close(); err != nil {
		return err
	}
	if st.Recovered != int64(w.e.remote.NumRecords()) {
		return fmt.Errorf("disk tier recovered %d of %d records on reopen", st.Recovered, w.e.remote.NumRecords())
	}
	return nil
}

func (w *filterWorkload) verify(ctx context.Context) error {
	in := w.e.in
	selected := func(id int64) bool { return in.filter().Matches(id, in.samples[id].Label) }
	n := 0
	for id := range in.samples {
		if selected(int64(id)) {
			n++
		}
	}
	if n != w.plan.Selected || w.plan.Total != len(in.samples) || w.plan.FullBytes != w.e.size[pcr.Full] {
		return fmt.Errorf("PlanFilter says %d of %d samples and %d full bytes; the input has %d of %d and the index %d",
			w.plan.Selected, w.plan.Total, w.plan.FullBytes, n, len(in.samples), w.e.size[pcr.Full])
	}
	return w.e.matches("pushdown scan", pcr.Full,
		w.e.remote.ScanEncoded(ctx, pcr.Full, pcr.WithFilter(in.filter())), selected)
}

// checkOutput re-opens an ingested directory and requires it to scan
// byte-identically to the part of bench-v1 made from the same samples.
func (w *ingestWorkload) checkOutput(ctx context.Context, dir string, part []pcr.Sample) error {
	ds, err := pcr.Open(dir)
	if err != nil {
		return err
	}
	defer ds.Close()
	lo, hi := part[0].ID, part[len(part)-1].ID
	return w.e.matches("re-opened ingest output", pcr.Full, ds.ScanEncoded(ctx, pcr.Full),
		func(id int64) bool { return lo <= id && id <= hi })
}

// verify writes and checks every part of the input once.
func (w *ingestWorkload) verify(ctx context.Context) error {
	for i := 0; i*ingestRecords*imagesPerRecord < len(w.e.in.samples); i++ {
		_, dir, err := w.write(w.part(i), createDataset)
		if err == nil {
			err = w.checkOutput(ctx, dir, w.part(i))
		}
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}
