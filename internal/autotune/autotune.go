// Package autotune implements the paper's dynamic scan-group selection
// (§4.5, §A.6): training starts at full quality, and a controller
// periodically decides which scan group to read next.
//
// Two controllers are provided. CosineController measures the cosine
// similarity between each candidate group's full-batch gradient and the
// full-quality gradient and picks the smallest group above a threshold
// (§A.6.2). PlateauController implements the simpler §4.5 heuristic: when
// training loss plateaus, checkpoint the model, probe each candidate group
// for a few iterations, keep the cheapest group whose loss matches the
// best, and roll back the probe updates.
//
// Mixture training (§A.6.3) is supported in both: instead of a hard scan
// choice, each record read draws its group from a distribution that places
// `weight` mass on the selected group and spreads the rest uniformly.
package autotune

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/iosim"
	"repro/internal/loader"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/train"
	"repro/pcr"
)

// Controller decides the scan group for the next stretch of training.
type Controller interface {
	// Name labels the controller in reports.
	Name() string
	// Tune inspects the current training state and returns the scan group
	// to use next. It may train probe steps on the model (the harness
	// passes a checkpoint copy) and must report the virtual seconds its
	// probing consumed.
	Tune(st *State) (group int, probeSec float64, err error)
	// ShouldTune reports whether this epoch is a tuning point.
	ShouldTune(epoch int, lossHistory []float64) bool
}

// State is what a controller may inspect and use during tuning.
type State struct {
	Set   *train.PCRSet
	Model *nn.MLP
	Task  synth.Task
	// Groups are the candidate scan groups in increasing order; the last
	// one is the reference (full quality).
	Groups []int
	// LR is the current learning rate (probes use it).
	LR, Momentum float64
	// Bandwidth is the cluster's aggregate delivery rate, used to charge
	// probe reads.
	Bandwidth float64
	// ComputeImagesPerSec charges probe compute.
	ComputeImagesPerSec float64
	// Rng drives any stochastic probing.
	Rng *rand.Rand
}

// probeReadSec charges the time to read the train set's records at group g.
func (st *State) probeReadSec(g int) (float64, error) {
	rb, err := st.Set.RecordBytesAtGroup(g)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, b := range rb {
		total += b
	}
	return float64(total) / st.Bandwidth, nil
}

// CosineController selects the smallest scan group whose full-batch
// gradient has cosine similarity ≥ Threshold with the full-quality gradient.
type CosineController struct {
	// Threshold is the minimum gradient agreement (paper uses 0.9).
	Threshold float64
	// TuneEvery triggers tuning every k epochs (paper: 15–30).
	TuneEvery int
	// WarmupEpochs delays the first tuning (paper: initial tuning at
	// epoch 5 after starting at full quality).
	WarmupEpochs int
}

// Name implements Controller.
func (c *CosineController) Name() string { return "cosine" }

// ShouldTune implements Controller.
func (c *CosineController) ShouldTune(epoch int, _ []float64) bool {
	every := c.TuneEvery
	if every <= 0 {
		every = 15
	}
	warm := c.WarmupEpochs
	if warm <= 0 {
		warm = 5
	}
	if epoch < warm {
		return false
	}
	return epoch == warm || (epoch-warm)%every == 0
}

// Tune implements Controller.
func (c *CosineController) Tune(st *State) (int, float64, error) {
	thr := c.Threshold
	if thr <= 0 {
		thr = 0.9
	}
	ref := st.Groups[len(st.Groups)-1]
	gRef, err := train.FullGradient(st.Set, st.Model, st.Task, ref)
	if err != nil {
		return 0, 0, err
	}
	refFlat := gRef.Flatten()
	probeSec, err := st.probeReadSec(ref)
	if err != nil {
		return 0, 0, err
	}
	// Compute cost: one full-batch pass per candidate.
	perPass := float64(st.Set.NumTrain()) / st.ComputeImagesPerSec
	probeSec += perPass

	chosen := ref
	for _, g := range st.Groups[:len(st.Groups)-1] {
		gg, err := train.FullGradient(st.Set, st.Model, st.Task, g)
		if err != nil {
			return 0, 0, err
		}
		read, err := st.probeReadSec(g)
		if err != nil {
			return 0, 0, err
		}
		probeSec += read + perPass
		sim, err := nn.CosineSimilarity(gg.Flatten(), refFlat)
		if err != nil {
			return 0, 0, err
		}
		if sim >= thr {
			chosen = g
			break
		}
	}
	return chosen, probeSec, nil
}

// PlateauController implements the §4.5 heuristic: on a loss plateau,
// checkpoint, probe each candidate for ProbeSteps minibatches, compare the
// resulting training losses, pick the cheapest group within Tolerance of
// the best, and roll back.
type PlateauController struct {
	// Window and MinImprove define plateau detection: tuning triggers when
	// the best loss of the last Window epochs improved less than
	// MinImprove (relative) over the Window before it.
	Window     int
	MinImprove float64
	// ProbeSteps is the number of probe minibatches per candidate.
	ProbeSteps int
	// BatchSize for probe minibatches.
	BatchSize int
	// Tolerance accepts a group whose probe loss is within (1+Tolerance)×
	// of the best candidate's.
	Tolerance float64

	lastTune int
}

// Name implements Controller.
func (p *PlateauController) Name() string { return "plateau" }

// ShouldTune implements Controller.
func (p *PlateauController) ShouldTune(epoch int, lossHistory []float64) bool {
	det := pcr.PlateauDetector{Window: p.Window, MinImprove: p.MinImprove}
	if det.Plateaued(epoch-p.lastTune, lossHistory) {
		p.lastTune = epoch
		return true
	}
	return false
}

// Tune implements Controller.
func (p *PlateauController) Tune(st *State) (int, float64, error) {
	steps := p.ProbeSteps
	if steps <= 0 {
		steps = 8
	}
	batch := p.BatchSize
	if batch <= 0 {
		batch = 32
	}
	tol := p.Tolerance
	if tol <= 0 {
		tol = 0.05
	}
	labels := st.Set.TrainLabels(st.Task)
	n := st.Set.NumTrain()

	ckpt := st.Model.Clone()
	losses := make([]float64, len(st.Groups))
	var probeSec float64
	for gi, g := range st.Groups {
		feats, err := st.Set.TrainFeatures(g)
		if err != nil {
			return 0, 0, err
		}
		read, err := st.probeReadSec(g)
		if err != nil {
			return 0, 0, err
		}
		probeSec += read
		if err := st.Model.Restore(ckpt); err != nil {
			return 0, 0, err
		}
		var last float64
		for s := 0; s < steps; s++ {
			b := nn.Batch{}
			for k := 0; k < batch; k++ {
				idx := st.Rng.Intn(n)
				b.X = append(b.X, feats[idx])
				b.Y = append(b.Y, labels[idx])
			}
			grads, loss, _, err := st.Model.Gradient(b)
			if err != nil {
				return 0, 0, err
			}
			st.Model.Step(grads, st.LR, st.Momentum)
			last = loss
		}
		losses[gi] = last
		probeSec += float64(steps*batch) / st.ComputeImagesPerSec
	}
	// Roll back the probe updates.
	if err := st.Model.Restore(ckpt); err != nil {
		return 0, 0, err
	}
	best := slices.Min(losses)
	for gi, g := range st.Groups {
		if losses[gi] <= best*(1+tol) {
			return g, probeSec, nil
		}
	}
	return st.Groups[len(st.Groups)-1], probeSec, nil
}

// Config configures a dynamic-tuning training run.
type Config struct {
	Model      nn.ModelProfile
	Task       synth.Task
	Controller Controller
	// Groups are the candidate scan groups (increasing; last = reference).
	// Default {1, 2, 5, NumGroups}.
	Groups []int
	Epochs int
	// BatchSize for SGD.
	BatchSize int
	Seed      int64
	// MixWeight enables mixture training: the selected group is drawn with
	// probability weight/(weight+K−1) per record, the others uniformly.
	// 0 disables mixing (hard selection). Paper uses weights 10 (~50%) and
	// 100 (~85%) over K=10 groups.
	MixWeight float64
	// Cluster overrides the simulated storage.
	Cluster *iosim.Cluster
	// EvalEvery samples test accuracy every k epochs (default 1).
	EvalEvery int
}

// EpochPoint extends the static trainer's per-epoch sample with the scan
// group in effect.
type EpochPoint struct {
	Epoch        int
	TimeSec      float64
	TrainLoss    float64
	TestAcc      float64
	Sampled      bool
	Group        int
	ImagesPerSec float64
	TuneSec      float64
}

// Result is a dynamic run's trace.
type Result struct {
	Points   []EpochPoint
	FinalAcc float64
	// TotalTimeSec includes probe/tuning overhead.
	TotalTimeSec float64
	// GroupSwitches counts controller decisions that changed the group.
	GroupSwitches int
}

// Run trains with dynamic scan-group control.
func Run(set *train.PCRSet, cfg Config) (*Result, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("autotune: nil controller")
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("autotune: non-positive epochs")
	}
	groups := cfg.Groups
	if groups == nil {
		groups = []int{1, 2, 5, set.NumGroups}
	}
	for i := 1; i < len(groups); i++ {
		if groups[i] <= groups[i-1] {
			return nil, fmt.Errorf("autotune: groups must be increasing")
		}
	}
	if groups[len(groups)-1] > set.NumGroups {
		return nil, fmt.Errorf("autotune: group %d exceeds dataset's %d", groups[len(groups)-1], set.NumGroups)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	model, err := cfg.Model.Build(train.FeatureLen, cfg.Task.NumClasses, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cluster := cfg.Cluster
	if cluster == nil {
		mean, err := set.MeanImageBytesAtGroup(set.NumGroups)
		if err != nil {
			return nil, err
		}
		cluster, err = train.ScaledStorage(mean, set.ImagesPerRecord)
		if err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	st := &State{
		Set:                 set,
		Model:               model,
		Task:                cfg.Task,
		Groups:              groups,
		LR:                  cfg.Model.LR,
		Momentum:            cfg.Model.Momentum,
		Bandwidth:           cluster.AggregateBandwidth(),
		ComputeImagesPerSec: cfg.Model.ClusterImagesPerSec,
		Rng:                 rng,
	}

	labels := set.TrainLabels(cfg.Task)
	testLabels := set.TestLabels(cfg.Task)
	ranges := set.RecordRanges()
	imagesPerRecord := set.ImagesPerRecordList()

	res := &Result{}
	clock := 0.0
	cur := groups[len(groups)-1] // start at full quality (§4.5)
	var lossHistory []float64

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Same LR schedule as static training (drops at 1/3 and 2/3): the
		// resulting loss plateaus are what the §4.5 heuristic detects.
		for _, frac := range []float64{1.0 / 3, 2.0 / 3} {
			if epoch == int(frac*float64(cfg.Epochs)) && epoch > 0 {
				st.LR /= 10
			}
		}
		var tuneSec float64
		if cfg.Controller.ShouldTune(epoch, lossHistory) {
			next, probeSec, err := cfg.Controller.Tune(st)
			if err != nil {
				return nil, err
			}
			tuneSec = probeSec
			clock += probeSec
			if next != cur {
				res.GroupSwitches++
				cur = next
			}
		}

		// Draw each record's group for this epoch (mixture or hard).
		recGroups := make([]int, set.NumRecords())
		for r := range recGroups {
			recGroups[r] = drawGroup(cur, groups, cfg.MixWeight, rng)
		}
		recordBytes := make([]int64, set.NumRecords())
		for r := range recordBytes {
			rb, err := set.RecordBytesAtGroup(recGroups[r])
			if err != nil {
				return nil, err
			}
			recordBytes[r] = rb[r]
		}
		sim, err := loader.Run(loader.Config{
			Cluster:            cluster,
			Threads:            6,
			QueueCap:           12,
			RecordBytes:        recordBytes,
			ImagesPerRecord:    imagesPerRecord,
			DecodeSecPerImage:  (1.0 / 150) / 10,
			ComputeSecPerImage: 1 / cfg.Model.ClusterImagesPerSec,
			Shuffle:            rng,
			StartAt:            clock,
		})
		if err != nil {
			return nil, err
		}
		clock = sim.EndAt

		// SGD epoch: each sample uses its record's drawn group.
		featsByGroup := map[int][][]float64{}
		for _, g := range groups {
			f, err := set.TrainFeatures(g)
			if err != nil {
				return nil, err
			}
			featsByGroup[g] = f
		}
		sampleGroup := make([]int, set.NumTrain())
		for r, rg := range recGroups {
			for i := ranges[r][0]; i < ranges[r][1]; i++ {
				sampleGroup[i] = rg
			}
		}
		order := rng.Perm(set.NumTrain())
		var epochLoss float64
		var steps int
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			b := nn.Batch{}
			for _, idx := range order[start:end] {
				b.X = append(b.X, featsByGroup[sampleGroup[idx]][idx])
				b.Y = append(b.Y, labels[idx])
			}
			g, loss, _, err := model.Gradient(b)
			if err != nil {
				return nil, err
			}
			model.Step(g, st.LR, st.Momentum)
			epochLoss += loss
			steps++
		}
		meanLoss := epochLoss / float64(steps)
		lossHistory = append(lossHistory, meanLoss)

		pt := EpochPoint{
			Epoch: epoch, TimeSec: clock, TrainLoss: meanLoss,
			Group: cur, ImagesPerSec: sim.ImagesPerSec, TuneSec: tuneSec,
		}
		if epoch%evalEvery == 0 || epoch == cfg.Epochs-1 {
			testFeats, err := set.TestFeatures(cur)
			if err != nil {
				return nil, err
			}
			_, acc, err := model.Evaluate(nn.Batch{X: testFeats, Y: testLabels})
			if err != nil {
				return nil, err
			}
			pt.TestAcc = acc
			pt.Sampled = true
			res.FinalAcc = acc
		}
		res.Points = append(res.Points, pt)
	}
	res.TotalTimeSec = clock
	return res, nil
}

// drawGroup samples a record's scan group: the selected group with weight w
// against 1 for every other candidate (w=0 → always the selected group).
func drawGroup(selected int, groups []int, w float64, rng *rand.Rand) int {
	if w <= 0 || len(groups) == 1 {
		return selected
	}
	total := w + float64(len(groups)-1)
	x := rng.Float64() * total
	if x < w {
		return selected
	}
	x -= w
	for _, g := range groups {
		if g == selected {
			continue
		}
		if x < 1 {
			return g
		}
		x -= 1
	}
	return selected
}
