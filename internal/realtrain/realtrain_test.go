package realtrain_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/realtrain"
	"repro/internal/synth"
	"repro/pcr"
)

func buildDataset(t *testing.T) (string, synth.Profile) {
	t.Helper()
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 7,
		pcr.WithImagesPerRecord(4), pcr.WithScanGroups(3)); err != nil {
		t.Fatal(err)
	}
	p, err := synth.ProfileByName("cars")
	if err != nil {
		t.Fatal(err)
	}
	return dir, p
}

// TestShardedWorkersCoverDataset: two workers, each training on the shard
// it opened, together consume every image exactly once per epoch, with
// shard byte totals summing to the whole-dataset epoch.
func TestShardedWorkersCoverDataset(t *testing.T) {
	dir, profile := buildDataset(t)
	cfg := realtrain.Config{
		Model:     nn.ShuffleNetLike,
		Task:      synth.Multiclass(profile),
		Epochs:    1,
		BatchSize: 8,
		Seed:      5,
	}

	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	whole, err := realtrain.Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var images int
	var bytes int64
	for shard := 0; shard < 2; shard++ {
		sds, err := pcr.Open(dir, pcr.WithShard(shard, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := realtrain.Run(context.Background(), sds, cfg)
		sds.Close()
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		images += res.Epochs[0].Stats.Images
		bytes += res.Epochs[0].Stats.BytesRead
	}
	if images != ds.NumImages() {
		t.Fatalf("shards consumed %d images, want %d", images, ds.NumImages())
	}
	if bytes != whole.Epochs[0].Stats.BytesRead {
		t.Fatalf("shard bytes sum to %d, whole-dataset epoch read %d", bytes, whole.Epochs[0].Stats.BytesRead)
	}
}

// aggressiveDetector plateaus on essentially every report, driving the
// policy to Min within the first epoch's minibatches.
func aggressiveDetector() pcr.PlateauDetector {
	return pcr.PlateauDetector{Window: 1, MinImprove: 0.99}
}

// losingProbeDriver pins quality at 1 and asks for an upward probe on
// every LR drop but never adopts a winner — so two runs, with and without
// probes, read identical bytes in identical order, and any trajectory
// difference can only come from probe updates leaking past the rollback.
type losingProbeDriver struct {
	cands []int

	mu        sync.Mutex
	wanted    bool
	completed int // probes handed back through CompleteProbe
}

func (d *losingProbeDriver) RecordQuality(int, int) int { return 1 }

func (d *losingProbeDriver) ReportLRDrop() {
	d.mu.Lock()
	d.wanted = true
	d.mu.Unlock()
}

func (d *losingProbeDriver) ProbePlan() ([]int, int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.wanted {
		return nil, 0, false
	}
	return d.cands, 2, true
}

func (d *losingProbeDriver) CompleteProbe([]pcr.ProbeResult) {
	d.mu.Lock()
	d.wanted = false
	d.completed++
	d.mu.Unlock()
}

// TestProbeRollbackTrajectoryUnchanged is the rollback half of the §4.5
// probe contract: a run whose upward probes all lose must be bit-identical
// — per-epoch losses and bytes — to the same run with no probes at all.
// The probe minibatches really were rolled back, model parameters AND
// optimizer momentum (a leaked momentum buffer alone would shift every
// loss after the probe).
func TestProbeRollbackTrajectoryUnchanged(t *testing.T) {
	dir, profile := buildDataset(t)
	base := realtrain.Config{
		Model:     nn.ShuffleNetLike,
		Task:      synth.Multiclass(profile),
		Epochs:    6,
		BatchSize: 8,
		Seed:      5,
	}

	run := func(policy pcr.QualityPolicy) *realtrain.Result {
		t.Helper()
		ds, err := pcr.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		cfg := base
		cfg.Policy = policy
		res, err := realtrain.Run(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	driver := &losingProbeDriver{cands: []int{1, 2, 3}}
	withProbes := run(driver)
	noProbes := run(pcr.FixedQuality(1))

	if driver.completed != 2 { // LR drops at epochs 2 and 4
		t.Fatalf("ran %d probes, want 2", driver.completed)
	}
	descendOnly := noProbes
	for i := range withProbes.Epochs {
		a, b := withProbes.Epochs[i], descendOnly.Epochs[i]
		if a.TrainLoss != b.TrainLoss {
			t.Fatalf("epoch %d loss %v with probes, %v without — probe updates leaked into the model",
				i, a.TrainLoss, b.TrainLoss)
		}
		if a.Stats.BytesRead != b.Stats.BytesRead {
			t.Fatalf("epoch %d read %d bytes with probes, %d without — probe reads leaked into BytesRead",
				i, a.Stats.BytesRead, b.Stats.BytesRead)
		}
	}
	// The probes themselves are visible in the probe accounting instead:
	// one pass per candidate of each probe, and the bytes they read.
	var probeBytes int64
	var passes int
	for _, e := range withProbes.Epochs {
		probeBytes += e.Stats.ProbeBytes
		passes += e.Stats.Probes
	}
	if want := driver.completed * len(driver.cands); passes != want || probeBytes == 0 {
		t.Fatalf("EpochStats fold %d probe passes and %d bytes, want %d passes and some bytes", passes, probeBytes, want)
	}
}

// forcedWinDriver doctors each probe's measured losses so the top
// candidate decisively wins, making re-ascension deterministic; everything
// else — plan, probe reads, rollback, bookkeeping — is the real
// ProbePolicy.
type forcedWinDriver struct{ *pcr.ProbePolicy }

func (d *forcedWinDriver) CompleteProbe(results []pcr.ProbeResult) {
	doctored := append([]pcr.ProbeResult(nil), results...)
	for i := range doctored[:len(doctored)-1] {
		doctored[i].Loss = 1e9
	}
	doctored[len(doctored)-1].Loss = 1
	d.ProbePolicy.CompleteProbe(doctored)
}

// TestProbeWinReascendsQuality: a winning upward probe at an LR drop moves
// the policy back to full quality, and the very next epoch's reads happen
// there — the §4.5 bidirectional behavior the descend-only policy lacked.
func TestProbeWinReascendsQuality(t *testing.T) {
	dir, profile := buildDataset(t)
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	driver := &forcedWinDriver{&pcr.ProbePolicy{
		Detector:   aggressiveDetector(),
		ProbeSteps: 2,
	}}
	res, err := realtrain.Run(context.Background(), ds, realtrain.Config{
		Model:     nn.ShuffleNetLike,
		Task:      synth.Multiclass(profile),
		Epochs:    4,
		BatchSize: 8,
		Seed:      5,
		Policy:    driver,
		LRDropAt:  []float64{0.75}, // one drop, at epoch 3
	})
	if err != nil {
		t.Fatal(err)
	}
	full := ds.Qualities()
	// Epochs between the first-epoch descent and the probe run entirely at
	// the floor; the probe epoch re-ascends from its first record.
	pre := res.Epochs[2].Stats
	if pre.MaxQuality != 1 {
		t.Fatalf("pre-probe epoch qualities [%d,%d], want floor 1", pre.MinQuality, pre.MaxQuality)
	}
	post := res.Epochs[3].Stats
	if post.MaxQuality != full {
		t.Fatalf("post-probe epoch qualities [%d,%d]: quality did not re-ascend to %d",
			post.MinQuality, post.MaxQuality, full)
	}
	var probeBytes int64
	for _, e := range res.Epochs {
		probeBytes += e.Stats.ProbeBytes
	}
	if post.Probes == 0 || post.ProbeBytes == 0 || post.ProbeBytes != probeBytes {
		t.Fatalf("probe accounting not folded into the probe epoch: %+v", post)
	}
	run, wins := driver.Probes()
	if run != 1 || wins != 1 {
		t.Fatalf("policy counted %d probes / %d wins, want 1/1", run, wins)
	}
}

func TestRunValidation(t *testing.T) {
	dir, profile := buildDataset(t)
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, err := realtrain.Run(context.Background(), ds, realtrain.Config{
		Model: nn.ShuffleNetLike, Task: synth.Multiclass(profile),
	}); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if _, err := realtrain.Run(context.Background(), ds, realtrain.Config{
		Model: nn.ShuffleNetLike, Epochs: 1,
	}); err == nil {
		t.Fatal("missing task accepted")
	}
}
