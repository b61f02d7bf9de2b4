// Package realtrain trains the reproduction's models over REAL I/O: batches
// come out of a pcr.Loader streaming an on-disk (or remote) dataset, not out
// of the iosim virtual clock. Wall-clock time, bytes moved, and stall time
// are measured, not simulated — this is the harness behind cmd/pcrtrain's
// default mode, producing the paper's Figure-11-style per-epoch numbers
// from a live storage path.
//
// The split of roles with internal/train is deliberate: train owns the
// virtual-clock experiments that regenerate the paper's figures under the
// paper's hardware balance; realtrain owns the production-style loop where
// the dataset is bytes on a disk or a prefix server and quality is a live
// I/O knob (the PlateauPolicy adapter feeds real observed losses back into
// the §4.5 plateau heuristic).
package realtrain

import (
	"context"
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/train"
	"repro/pcr"
)

// Config configures one real-I/O training run.
type Config struct {
	// Model selects the architecture and optimizer defaults.
	Model nn.ModelProfile
	// Task remaps the dataset's stored fine labels.
	Task synth.Task
	// Epochs is the epoch budget (must be positive).
	Epochs int
	// BatchSize is the SGD minibatch size (default 32).
	BatchSize int
	// Seed drives model init and the loader's shuffle.
	Seed int64
	// Policy chooses per-record read quality. Nil means FixedQuality(Full).
	// A policy with a Report(float64) method (PlateauPolicy, ProbePolicy)
	// additionally receives every minibatch loss, closing the paper's §4.5
	// loop on real observations; a ProbeDriver (ProbePolicy) is also told
	// about learning-rate drops and gets its upward probes run at epoch
	// boundaries — model checkpointed, probe minibatches trained per
	// candidate quality through Loader.Probe().Batches, updates rolled back.
	Policy pcr.QualityPolicy
	// ShuffleWindow is the loader's shuffle buffer in records (0 = loader
	// default).
	ShuffleWindow int
	// LRDropAt lists epoch fractions where the LR drops 10× (default
	// {1/3, 2/3}, mirroring the paper's schedule).
	LRDropAt []float64
}

// lossReporter is the feedback half of an adaptive policy: every minibatch
// loss is fed through it.
type lossReporter interface {
	Report(loss float64)
}

// ProbeDriver is the harness-facing surface of a bidirectional quality
// policy (pcr.ProbePolicy implements it). The harness reports improvement
// signals in through ReportLRDrop; when the policy wants an upward probe,
// ProbePlan returns the candidate qualities and the per-candidate minibatch
// budget, the harness measures each candidate on checkpointed model state,
// and CompleteProbe hands the results back for the policy's decision.
type ProbeDriver interface {
	pcr.QualityPolicy
	ReportLRDrop()
	ProbePlan() (candidates []int, steps int, ok bool)
	CompleteProbe(results []pcr.ProbeResult)
}

// EpochResult is one epoch's measured curve point.
type EpochResult struct {
	Epoch int
	// TrainLoss is the epoch's mean minibatch loss.
	TrainLoss float64
	// Stats are the loader's measured I/O numbers for this epoch.
	Stats pcr.EpochStats
}

// Result is a full real-I/O training run.
type Result struct {
	Epochs []EpochResult
	// FinalLoss is the last epoch's mean loss.
	FinalLoss float64
	// TotalBytes sums bytes read across epochs (probe reads excluded: each
	// epoch's EpochStats.ProbeBytes counts those).
	TotalBytes int64
	// TotalWall is the measured wall-clock of all epochs.
	TotalWall time.Duration
}

// Run trains cfg.Model through a pcr.Loader over ds. The dataset must be a
// record-granular format; it may come from pcr.Open or pcr.OpenRemote, and
// be a whole dataset or one worker's pcr.WithShard — the loop is identical
// either way.
func Run(ctx context.Context, ds *pcr.Dataset, cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("realtrain: non-positive epochs")
	}
	if cfg.Task.Map == nil || cfg.Task.NumClasses < 2 {
		return nil, fmt.Errorf("realtrain: missing task")
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	drops := cfg.LRDropAt
	if drops == nil {
		drops = []float64{1.0 / 3, 2.0 / 3}
	}
	policy := cfg.Policy
	if policy == nil {
		policy = pcr.FixedQuality(pcr.Full)
	}

	opts := []pcr.LoaderOption{
		pcr.WithBatchSize(batch),
		pcr.WithLoaderSeed(cfg.Seed),
		pcr.WithQualityPolicy(policy),
	}
	if cfg.ShuffleWindow > 0 {
		opts = append(opts, pcr.WithShuffleWindow(cfg.ShuffleWindow))
	}
	loader, err := pcr.NewLoader(ds, opts...)
	if err != nil {
		return nil, err
	}

	model, err := cfg.Model.Build(train.FeatureLen, cfg.Task.NumClasses, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reporter, _ := policy.(lossReporter)
	driver, _ := policy.(ProbeDriver)

	res := &Result{}
	lr := cfg.Model.LR
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, frac := range drops {
			if epoch == int(frac*float64(cfg.Epochs)) && epoch > 0 {
				lr /= 10
				// An LR drop is the paper's improvement signal: the policy
				// may ask for an upward probe in response.
				if driver != nil {
					driver.ReportLRDrop()
				}
			}
		}
		// Run any pending upward probe at the epoch boundary, before the
		// epoch streams: its reads fold into this epoch's ProbeBytes and
		// its winning quality applies from this epoch's first record.
		if driver != nil {
			if err := probeOnce(ctx, loader, model, driver, cfg.Task, lr, cfg.Model.Momentum); err != nil {
				return nil, err
			}
		}
		var epochLoss float64
		var steps int
		for b, err := range loader.Epoch(ctx, epoch) {
			if err != nil {
				return nil, err
			}
			nb := toNNBatch(b, cfg.Task)
			grads, loss, _, err := model.Gradient(nb)
			if err != nil {
				return nil, err
			}
			model.Step(grads, lr, cfg.Model.Momentum)
			epochLoss += loss
			steps++
			// Feed the adaptive policy real observations at minibatch
			// granularity; the loader asks it again for every record read
			// it issues, so a plateau cheapens the epoch in flight, past
			// the few records already read ahead.
			if reporter != nil {
				reporter.Report(loss)
			}
		}
		if steps == 0 {
			return nil, fmt.Errorf("realtrain: epoch %d delivered no batches", epoch)
		}
		stats, ok := loader.LastEpochStats()
		if !ok {
			return nil, fmt.Errorf("realtrain: epoch %d completed without stats", epoch)
		}
		pt := EpochResult{
			Epoch:     epoch,
			TrainLoss: epochLoss / float64(steps),
			Stats:     stats,
		}
		res.Epochs = append(res.Epochs, pt)
		res.FinalLoss = pt.TrainLoss
		res.TotalBytes += stats.BytesRead
		res.TotalWall += stats.Wall
	}
	return res, nil
}

// toNNBatch featurizes one loader batch for the model.
func toNNBatch(b pcr.Batch, task synth.Task) nn.Batch {
	nb := nn.Batch{
		X: make([][]float64, 0, len(b.Samples)),
		Y: make([]int, 0, len(b.Samples)),
	}
	for _, s := range b.Samples {
		nb.X = append(nb.X, train.Featurize(s.Image))
		nb.Y = append(nb.Y, task.Map(int(s.Label)))
	}
	return nb
}

// probeOnce runs the driver's pending upward probe, if any: it checkpoints
// the model (parameters AND optimizer velocity), trains `steps` probe
// minibatches per candidate quality on out-of-band loader reads — each
// candidate starting from the same checkpoint and reading the SAME records
// (one Probe handle per probe), so the losses differ by quality, not by
// which random records each candidate happened to draw — hands the
// measured losses to the policy, and rolls every probe update back.
// Training that follows is bit-identical to a run where a losing probe
// never happened.
func probeOnce(ctx context.Context, loader *pcr.Loader, model *nn.MLP, driver ProbeDriver, task synth.Task, lr, momentum float64) error {
	cands, steps, ok := driver.ProbePlan()
	if !ok || len(cands) == 0 {
		return nil
	}
	ckpt := model.Clone()
	probe := loader.Probe()
	results := make([]pcr.ProbeResult, 0, len(cands))
	for _, q := range cands {
		if err := model.Restore(ckpt); err != nil {
			return err
		}
		batches, probeBytes, err := probe.Batches(ctx, q, steps)
		if err != nil {
			return err
		}
		var last float64
		for _, b := range batches {
			grads, loss, _, err := model.Gradient(toNNBatch(b, task))
			if err != nil {
				return err
			}
			model.Step(grads, lr, momentum)
			last = loss
		}
		results = append(results, pcr.ProbeResult{Quality: q, Loss: last, Bytes: probeBytes})
	}
	// Roll back: probe minibatches must not perturb the real trajectory.
	if err := model.Restore(ckpt); err != nil {
		return err
	}
	driver.CompleteProbe(results)
	return nil
}
