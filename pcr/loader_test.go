package pcr_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/synth"
	"repro/pcr"
)

// epochIDs runs one loader epoch and returns the sample IDs in delivery
// order plus the epoch's stats.
func epochIDs(t *testing.T, l *pcr.Loader, epoch int) ([]int64, pcr.EpochStats) {
	t.Helper()
	var ids []int64
	for b, err := range l.Epoch(context.Background(), epoch) {
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if b.Epoch != epoch {
			t.Fatalf("batch reports epoch %d, want %d", b.Epoch, epoch)
		}
		for _, s := range b.Samples {
			if s.Image == nil {
				t.Fatalf("epoch %d: sample %d not decoded", epoch, s.ID)
			}
			ids = append(ids, s.ID)
		}
	}
	stats, ok := l.LastEpochStats()
	if !ok {
		t.Fatalf("epoch %d: no stats after completed epoch", epoch)
	}
	return ids, stats
}

// TestLoaderDeterministicShuffle: same seed ⇒ same per-epoch order across
// loader instances; different epochs ⇒ different orders; a different seed
// ⇒ a different order.
func TestLoaderDeterministicShuffle(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(1)) // 1 image/record: order is record order
	if n < 8 {
		t.Fatalf("dataset too small to test shuffling: %d images", n)
	}
	open := func(seed int64) *pcr.Loader {
		ds, err := pcr.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithLoaderSeed(seed), pcr.WithShuffleWindow(8))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	a, b := open(7), open(7)
	e0a, _ := epochIDs(t, a, 0)
	e0b, _ := epochIDs(t, b, 0)
	if !equalIDs(e0a, e0b) {
		t.Fatal("same seed, same epoch: orders differ")
	}
	e1a, _ := epochIDs(t, a, 1)
	if equalIDs(e0a, e1a) {
		t.Fatal("epoch 0 and epoch 1 have identical orders")
	}
	e1b, _ := epochIDs(t, b, 1)
	if !equalIDs(e1a, e1b) {
		t.Fatal("same seed, same epoch (1): orders differ")
	}
	c := open(8)
	e0c, _ := epochIDs(t, c, 0)
	if equalIDs(e0a, e0c) {
		t.Fatal("different seeds produced identical epoch-0 orders")
	}
	// Each epoch is a permutation of the full sample set.
	for _, ids := range [][]int64{e0a, e1a, e0c} {
		if len(ids) != n {
			t.Fatalf("epoch delivered %d samples, want %d", len(ids), n)
		}
		seen := make(map[int64]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("sample %d delivered twice in one epoch", id)
			}
			seen[id] = true
		}
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoaderShardPartition: datasets opened as shards are disjoint, cover
// every sample, and are balanced to within one record.
func TestLoaderShardPartition(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(2))

	const shards = 3
	seen := make(map[int64]int)
	var minRec, maxRec int
	for s := 0; s < shards; s++ {
		ds, err := pcr.Open(dir, pcr.WithShard(s, shards))
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		l, err := pcr.NewLoader(ds, pcr.WithBatchSize(5))
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 || ds.NumRecords() < minRec {
			minRec = ds.NumRecords()
		}
		if ds.NumRecords() > maxRec {
			maxRec = ds.NumRecords()
		}
		ids, _ := epochIDs(t, l, 0)
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				t.Fatalf("sample %d appears in shards %d and %d", id, prev, s)
			}
			seen[id] = s
		}
	}
	if len(seen) != n {
		t.Fatalf("shards cover %d samples, want %d", len(seen), n)
	}
	if maxRec-minRec > 1 {
		t.Fatalf("shard imbalance: record counts range %d..%d", minRec, maxRec)
	}
}

// TestLoaderBatchAssembly checks that every batch but the last is full and
// that the batches cover the epoch.
func TestLoaderBatchAssembly(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	batch := 7
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(batch))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for b, err := range l.Epoch(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(b.Samples))
	}
	total := 0
	for i, sz := range sizes {
		total += sz
		if i < len(sizes)-1 && sz != batch {
			t.Fatalf("batch %d has %d samples, want %d", i, sz, batch)
		}
	}
	if total != n {
		t.Fatalf("batches deliver %d samples, want %d", total, n)
	}
	stats, _ := l.LastEpochStats()
	if stats.Batches != len(sizes) || stats.Images != n {
		t.Fatalf("stats report %d batches / %d images, want %d / %d", stats.Batches, stats.Images, len(sizes), n)
	}
}

// midEpochPolicy switches from Full to quality 1 after k RecordQuality
// calls — a stand-in for a controller cheapening an epoch in flight.
type midEpochPolicy struct {
	mu    sync.Mutex
	after int
	calls int
}

func (p *midEpochPolicy) RecordQuality(epoch, record int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.calls > p.after {
		return 1
	}
	return pcr.Full
}

// TestLoaderAdaptiveQualityMovesFewerBytes: an epoch whose policy cheapens
// mid-flight reads strictly fewer bytes than a full-quality epoch of the
// same data, and the stats expose the mixed qualities.
func TestLoaderAdaptiveQualityMovesFewerBytes(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	full, err := pcr.NewLoader(ds, pcr.WithQuality(pcr.Full))
	if err != nil {
		t.Fatal(err)
	}
	_, fullStats := epochIDs(t, full, 0)
	if fullStats.MinQuality != fullStats.MaxQuality || fullStats.MinQuality != ds.Qualities() {
		t.Fatalf("full epoch qualities [%d,%d], want both %d", fullStats.MinQuality, fullStats.MaxQuality, ds.Qualities())
	}

	adaptive, err := pcr.NewLoader(ds, pcr.WithQualityPolicy(&midEpochPolicy{after: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ids, adStats := epochIDs(t, adaptive, 0)
	if adStats.Images != fullStats.Images || len(ids) != fullStats.Images {
		t.Fatalf("adaptive epoch delivered %d images, want %d", adStats.Images, fullStats.Images)
	}
	if adStats.BytesRead >= fullStats.BytesRead {
		t.Fatalf("adaptive epoch read %d bytes, want < full epoch's %d", adStats.BytesRead, fullStats.BytesRead)
	}
	if adStats.MinQuality != 1 || adStats.MaxQuality != ds.Qualities() {
		t.Fatalf("adaptive epoch qualities [%d,%d], want [1,%d]", adStats.MinQuality, adStats.MaxQuality, ds.Qualities())
	}
}

// TestLoaderRemoteMatchesLocal runs the same loader configuration over
// Open and OpenRemote and requires identical delivery order and byte
// accounting.
func TestLoaderRemoteMatchesLocal(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(3))
	_, ts := startServer(t, dir, nil)

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

	opts := []pcr.LoaderOption{pcr.WithBatchSize(3), pcr.WithLoaderSeed(11), pcr.WithQuality(2)}
	ll, err := pcr.NewLoader(local, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := pcr.NewLoader(remote, opts...)
	if err != nil {
		t.Fatal(err)
	}
	lids, lstats := epochIDs(t, ll, 0)
	rids, rstats := epochIDs(t, rl, 0)
	if !equalIDs(lids, rids) {
		t.Fatal("remote loader delivery order differs from local")
	}
	if lstats.BytesRead != rstats.BytesRead {
		t.Fatalf("remote loader read %d bytes, local %d", rstats.BytesRead, lstats.BytesRead)
	}
}

// TestLoaderUnsupportedFormat: baseline formats have no record random
// access for the loader to shuffle over.
func TestLoaderUnsupportedFormat(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithFormat(pcr.TFRecord))
	ds, err := pcr.Open(dir, pcr.WithFormat(pcr.TFRecord))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := pcr.NewLoader(ds); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("NewLoader on tfrecord: %v, want ErrUnsupported", err)
	}
}

// TestPlateauPolicySteps: reported plateaus step the quality down one
// level at a time, never below Min, and only once the dataset's top is
// known.
func TestPlateauPolicySteps(t *testing.T) {
	p := &pcr.PlateauPolicy{
		Detector: pcr.PlateauDetector{Window: 1, MinImprove: 0.99},
		Min:      1,
	}
	// Before any loader has resolved Full, plateaus must not step.
	p.Report(1.0)
	p.Report(1.0)
	p.Report(1.0)
	if q := p.Quality(); q != pcr.Full {
		t.Fatalf("policy stepped to %d before Full was resolved", q)
	}

	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l, err := pcr.NewLoader(ds, pcr.WithQualityPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	epochIDs(t, l, 0) // resolves Full against the dataset

	// With Window=1 and a flat loss, every further report is a plateau:
	// one step down per report, stopping at Min.
	top := ds.Qualities()
	for want := top - 1; want >= 1; want-- {
		p.Report(1.0)
		if q := p.Quality(); q != want {
			t.Fatalf("after plateau, quality = %d, want %d", q, want)
		}
	}
	p.Report(1.0)
	if q := p.Quality(); q != 1 {
		t.Fatalf("policy descended below Min: %d", q)
	}
}

// TestLoaderResumeMidEpoch: a worker consumes part of an epoch, checkpoints,
// "crashes", and a fresh loader resumed from the checkpoint delivers exactly
// the remaining samples of the same shuffled epoch — and never reads the
// records wholly inside the consumed prefix.
func TestLoaderResumeMidEpoch(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	opts := []pcr.LoaderOption{
		pcr.WithBatchSize(8),
		pcr.WithLoaderSeed(7),
		pcr.WithShuffleWindow(4),
	}
	full, err := pcr.NewLoader(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, _ := epochIDs(t, full, 3)

	// First life: consume 2 batches of epoch 3, checkpoint, stop.
	first, err := pcr.NewLoader(ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var gotIDs []int64
	var cp pcr.Checkpoint
	consumed := 0
	for b, err := range first.Epoch(context.Background(), 3) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			gotIDs = append(gotIDs, s.ID)
		}
		consumed++
		if consumed == 2 {
			var ok bool
			cp, ok = first.Checkpoint()
			if !ok {
				t.Fatal("no checkpoint after two batches")
			}
			break
		}
	}
	if cp.Epoch != 3 || cp.Batch != 2 {
		t.Fatalf("checkpoint = (%d,%d), want (3,2)", cp.Epoch, cp.Batch)
	}

	// Second life: a fresh loader resumed from the checkpoint. The resumed
	// epoch must move fewer record bytes than a full one (skipped records
	// are never read).
	second, err := pcr.NewLoader(ds, pcr.WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	for b, err := range second.Epoch(context.Background(), cp.Epoch) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			gotIDs = append(gotIDs, s.ID)
		}
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("resumed epoch delivered %d samples total, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("sample %d: resumed sequence %d, uninterrupted %d", i, gotIDs[i], wantIDs[i])
		}
	}
	fullStats, _ := full.LastEpochStats()
	resStats, ok := second.LastEpochStats()
	if !ok {
		t.Fatal("no stats after resumed epoch")
	}
	if resStats.BytesRead >= fullStats.BytesRead {
		t.Fatalf("resumed epoch read %d bytes, full epoch %d — skipped records were read",
			resStats.BytesRead, fullStats.BytesRead)
	}

	// Later epochs stream in full again.
	nextIDs, _ := epochIDs(t, second, 4)
	wantNext, _ := epochIDs(t, full, 4)
	if len(nextIDs) != len(wantNext) {
		t.Fatalf("epoch after resume delivered %d samples, want %d", len(nextIDs), len(wantNext))
	}
}

// TestLoaderResumeRoundTripsJSON: checkpoints persist like model weights.
func TestLoaderResumeRoundTripsJSON(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithLoaderSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range l.Epoch(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
		break // one batch
	}
	cp, ok := l.Checkpoint()
	if !ok {
		t.Fatal("no checkpoint")
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back pcr.Checkpoint
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != cp {
		t.Fatalf("checkpoint round-trip: %+v != %+v", back, cp)
	}
	if back.Seed != 9 || back.BatchSize != 4 {
		t.Fatalf("checkpoint did not record configuration: %+v", back)
	}
}

// TestLoaderResumeAtEpochEnd: resuming from a checkpoint taken after the
// final batch yields an empty remainder, not an error.
func TestLoaderResumeAtEpochEnd(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(8))
	if err != nil {
		t.Fatal(err)
	}
	epochIDs(t, l, 0)
	cp, _ := l.Checkpoint()

	resumed, err := pcr.NewLoader(ds, pcr.WithResume(cp))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range resumed.Epoch(context.Background(), cp.Epoch) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 0 {
		t.Fatalf("resume past the last batch delivered %d batches, want 0", n)
	}
}

// delivered is what an epoch hands over, reduced to what can be compared.
type delivered struct {
	batches [][]sampleKey    // batch boundaries as yielded
	cps     []pcr.Checkpoint // Checkpoint() while each batch is held
	stats   pcr.EpochStats
}

type sampleKey struct {
	id, label int64
	jpeg      [sha256.Size]byte
}

// epochSpec is one draw of the equivalence property.
type epochSpec struct {
	epoch, quality int
	batch, window  int
	shard, shards  int
	resume         int // batches already delivered; -1 for a fresh epoch
	pred           pcr.Predicate
}

func (sp epochSpec) options() []pcr.LoaderOption {
	opts := []pcr.LoaderOption{pcr.WithBatchSize(sp.batch), pcr.WithShuffleWindow(sp.window),
		pcr.WithLoaderSeed(17), pcr.WithQuality(sp.quality)}
	if sp.pred != nil {
		opts = append(opts, pcr.WithLoaderFilter(sp.pred))
	}
	if sp.resume >= 0 {
		opts = append(opts, pcr.WithResume(pcr.Checkpoint{Epoch: sp.epoch, Batch: sp.resume, Seed: 17,
			BatchSize: sp.batch, Window: sp.window, Shard: sp.shard, Shards: sp.shards}))
	}
	return opts
}

// referenceEpoch is Loader.Epoch written down serially: no read-ahead, no
// workers, one record at a time straight from the record-level calls of
// the whole local dataset at dir, shard record r being record
// sp.shard + r·sp.shards of the whole.
func referenceEpoch(t *testing.T, dir string, sp epochSpec) delivered {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ds, err := pcr.Open(dir)
	check(err)
	defer ds.Close()
	// The visit order is the Loader's, over as many records as the shard
	// holds.
	view, err := pcr.Open(dir, pcr.WithShard(sp.shard, sp.shards))
	check(err)
	defer view.Close()
	l, err := pcr.NewLoader(view, sp.options()...)
	check(err)
	var out delivered
	st := &out.stats
	st.Epoch = sp.epoch
	var cur []sampleKey
	flush := func() {
		out.batches, cur = append(out.batches, cur), nil
		st.Batches++
		out.cps = append(out.cps, pcr.Checkpoint{Epoch: sp.epoch, Batch: max(sp.resume, 0) + st.Batches, Seed: 17,
			BatchSize: sp.batch, Window: sp.window, Shard: sp.shard, Shards: sp.shards})
	}
	skip := max(sp.resume, 0) * sp.batch
	for _, r := range l.EpochOrder(sp.epoch) {
		rec := sp.shard + r*sp.shards
		total, err := ds.RecordImages(rec)
		check(err)
		full, err := ds.RecordPrefixLen(rec, sp.quality)
		check(err)
		n := total
		if sp.pred != nil {
			if n = ds.SelectedCount(rec, sp.pred); n == 0 {
				st.SkippedImages += total
				st.BytesAvoided += full
				continue
			}
		}
		if skip >= n {
			skip -= n
			continue
		}
		samples, bytes, avoided := []pcr.Sample(nil), full, int64(0)
		if sp.pred != nil {
			samples, bytes, avoided, err = ds.ReadRecordFiltered(rec, sp.quality, sp.pred)
		} else {
			samples, err = ds.ReadRecordEncoded(rec, sp.quality)
		}
		check(err)
		st.Records++
		st.BytesRead += bytes
		st.BytesAvoided += avoided
		st.SkippedImages += total - len(samples)
		st.MinQuality, st.MaxQuality = sp.quality, sp.quality
		for _, s := range samples[skip:] {
			st.Images++
			if cur = append(cur, sampleKey{s.ID, s.Label, sha256.Sum256(s.JPEG)}); len(cur) == sp.batch {
				flush()
			}
		}
		skip = 0
	}
	if len(cur) > 0 {
		flush()
	}
	return out
}

// runEpoch is the same epoch through the Loader.
func runEpoch(t *testing.T, ds *pcr.Dataset, sp epochSpec) delivered {
	t.Helper()
	l, err := pcr.NewLoader(ds, sp.options()...)
	if err != nil {
		t.Fatal(err)
	}
	var out delivered
	for b, err := range l.Epoch(context.Background(), sp.epoch) {
		if err != nil {
			t.Fatal(err)
		}
		var keys []sampleKey
		for _, s := range b.Samples {
			if s.Image == nil {
				t.Fatalf("sample %d not decoded", s.ID)
			}
			keys = append(keys, sampleKey{s.ID, s.Label, sha256.Sum256(s.JPEG)})
		}
		out.batches = append(out.batches, keys)
		cp, _ := l.Checkpoint()
		out.cps = append(out.cps, cp)
	}
	out.stats, _ = l.LastEpochStats()
	// Timing is not part of the contract.
	out.stats.Wall, out.stats.Stall, out.stats.ImagesPerSec = 0, 0, 0
	return out
}

// TestLoaderPipelineEquivalence is the property the pipeline has to keep:
// whatever the shuffle window, batch size, shard opened, resume position
// and filter, locally or over the wire, with reads completing out of order,
// Epoch yields exactly the samples, batch boundaries, checkpoint positions
// and counters of the serial reference.
func TestLoaderPipelineEquivalence(t *testing.T) {
	preds := []pcr.Predicate{nil, nil, pcr.LabelIn(0, 1, 2), pcr.LabelIn(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)}
	for _, perRecord := range []int{3, 12} {
		dir, _ := synthDir(t, pcr.WithImagesPerRecord(perRecord), pcr.WithScanGroups(4))
		_, ts := startServer(t, dir, nil)
		whole, err := pcr.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		records := whole.NumRecords()
		whole.Close()
		rng := rand.New(rand.NewSource(int64(perRecord)))
		for draw := 0; draw < 12; draw++ {
			sp := epochSpec{
				epoch:   rng.Intn(3),
				quality: 1 + rng.Intn(4),
				batch:   []int{1, 7, 32, 50}[rng.Intn(4)],
				window:  []int{1, 8, records}[rng.Intn(3)],
				shards:  1 + rng.Intn(2),
				resume:  -1,
				pred:    preds[rng.Intn(len(preds))],
			}
			sp.shard = rng.Intn(sp.shards)
			// Resume positions are drawn against the uninterrupted epoch:
			// its first batch, its last, one past it, or any in between
			// (with these batch sizes, mostly mid-record).
			if nb := len(referenceEpoch(t, dir, sp).batches); rng.Intn(3) > 0 {
				sp.resume = []int{0, max(nb-1, 0), nb, rng.Intn(nb + 1)}[rng.Intn(4)]
			}
			remote := rng.Intn(2) == 0
			name := fmt.Sprintf("perRecord=%d/draw=%d", perRecord, draw)

			var ds *pcr.Dataset
			opts := []pcr.Option{pcr.WithShard(sp.shard, sp.shards), pcr.WithPrefetchWorkers(3)}
			if remote {
				ds, err = pcr.OpenRemote(ts.URL, opts...)
			} else {
				ds, err = pcr.Open(dir, opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			delayReads(ds, rng.Int63())
			want, got := referenceEpoch(t, dir, sp), runEpoch(t, ds, sp)
			ds.Close()
			if !reflect.DeepEqual(got.stats, want.stats) {
				t.Errorf("%s %+v remote=%v:\nstats %+v\n want %+v", name, sp, remote, got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.cps, want.cps) {
				t.Errorf("%s %+v remote=%v:\ncheckpoints %+v\n       want %+v", name, sp, remote, got.cps, want.cps)
			}
			if !reflect.DeepEqual(got.batches, want.batches) {
				t.Errorf("%s %+v remote=%v: %d batches differ from the reference's %d", name, sp, remote, len(got.batches), len(want.batches))
			}
		}
	}
}

// TestLoaderPipelineErrorOrder: a read that fails on the k-th record visited
// surfaces after every sample of the records before it, however the reads
// around it complete.
func TestLoaderPipelineErrorOrder(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(3))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sp := epochSpec{quality: pcr.Full, batch: 1, window: 8, shards: 1, resume: -1}
	l, err := pcr.NewLoader(ds, sp.options()...)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	order := l.EpochOrder(0)
	want := 0
	for _, rec := range order[:k] {
		n, err := ds.RecordImages(rec)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	boom := errors.New("boom")
	delayReads(ds, 5)
	hook(ds, func(name string) error {
		if name == recordName(order[k]) {
			return boom // at once, ahead of the slower reads before it
		}
		return nil
	}, nil)
	got := 0
	var failed error
	for b, err := range l.Epoch(context.Background(), 0) {
		if err != nil {
			failed = err
			break
		}
		got += len(b.Samples)
	}
	if !errors.Is(failed, boom) || got != want {
		t.Fatalf("epoch delivered %d samples and then %v, want the %d before record %d and then %v", got, failed, want, order[k], boom)
	}
	if _, ok := l.LastEpochStats(); ok {
		t.Fatal("a failed epoch published stats")
	}
}

// loggedPolicy is a PlateauPolicy that records the answer it gave for each
// record.
type loggedPolicy struct {
	*pcr.PlateauPolicy
	mu      sync.Mutex
	answers map[int]int
}

func (p *loggedPolicy) RecordQuality(epoch, record int) int {
	q := p.PlateauPolicy.RecordQuality(epoch, record)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.answers[record] = q
	return q
}

// TestLoaderPipelinePolicyLag bounds how stale a policy's answer can be: the
// policy is asked when a record's read is issued, up to ReadAhead records
// before the record is delivered, so after a PlateauPolicy steps down
// mid-epoch at most ReadAhead+1 further records arrive at the old quality.
func TestLoaderPipelinePolicyLag(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	recordOf := recordOfSample(t, ds)
	if ds.NumRecords() < pcr.ReadAhead+6 {
		t.Fatalf("%d records are too few to see past a lag of %d", ds.NumRecords(), pcr.ReadAhead)
	}

	plateau := &pcr.PlateauPolicy{Detector: pcr.PlateauDetector{Window: 1, MinImprove: 0.99}}
	policy := &loggedPolicy{PlateauPolicy: plateau, answers: map[int]int{}}
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(3), pcr.WithQualityPolicy(policy))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}  // records delivered, in part or whole
	stale := map[int]bool{} // of those first delivered after the step: at the old quality
	stepped, fresh := false, 0
	for b, err := range l.Epoch(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			rec := recordOf[s.ID]
			if stepped && !seen[rec] {
				policy.mu.Lock()
				q := policy.answers[rec]
				policy.mu.Unlock()
				if q == pcr.Full {
					stale[rec] = true
				} else {
					fresh++
				}
			}
			seen[rec] = true
		}
		if len(seen) >= 3 && !stepped {
			for i := 0; i < 10 && plateau.Quality() == pcr.Full; i++ {
				plateau.Report(1.0)
			}
			if stepped = plateau.Quality() != pcr.Full; !stepped {
				t.Fatal("flat losses did not step the policy down")
			}
		}
	}
	if len(stale) > pcr.ReadAhead+1 {
		t.Errorf("%d records arrived at the old quality after the step, bound is %d", len(stale), pcr.ReadAhead+1)
	}
	if fresh == 0 {
		t.Error("no record arrived at the new quality: the step never took effect")
	}
}

// benchShaped writes a dataset shaped as the repository benchmark's input
// (synth.ImageNet images at 128×128, quality 92 with 4:2:0 chroma, 32 to a
// record), of n images: the training split of the 5n/4 it generates.
func benchShaped(tb testing.TB, n int) string {
	p := synth.ImageNet
	p.ImageSize = 128
	p.NumImages = n * 5 / 4
	src, err := synth.Generate(p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	w, err := pcr.Create(dir, pcr.WithImagesPerRecord(32))
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range src.Train {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: 92, Subsample420: true})
		if err != nil {
			tb.Fatal(err)
		}
		if err := w.Append(pcr.Sample{ID: int64(s.ID), Label: int64(s.Label), JPEG: data}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops at random what is put back — the decoders' scratch
// (jpegc) among it — so what an epoch allocates there is the pool's, not
// the Loader's.
var raceEnabled bool

// TestLoaderEpochAllocationsBounded: once an epoch has run, the next
// allocates less than an eighth of the JPEG bytes it delivers — its record
// reads splice into the buffers the epoch before handed back, and parse
// into the RecordMetas earlier reads are done with, so what is left is per
// record and per batch, not per byte. It is the least of three epochs, each
// on one P after a warm-up one, by TotalAlloc, which counts every
// allocation.
func TestLoaderEpochAllocationsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool reallocates decoder scratch at random")
	}
	ds, err := pcr.Open(benchShaped(t, 128), pcr.WithPrefetchWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	epoch := func() (delivered int) {
		for b, err := range l.Epoch(context.Background(), 0) {
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range b.Samples {
				delivered += len(s.JPEG)
			}
		}
		return delivered
	}
	epoch()
	least := uint64(math.MaxUint64)
	var delivered int
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delivered = epoch()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a steady-state epoch delivers %d JPEG bytes and allocates %d", delivered, least)
	if least >= uint64(delivered)/8 {
		t.Fatalf("a steady-state epoch allocates %d bytes for %d JPEG bytes delivered, want under an eighth", least, delivered)
	}
}
