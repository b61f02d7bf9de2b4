package train

import (
	"math/rand"
	"slices"

	"repro/internal/nn"
	"repro/internal/synth"
	"repro/pcr"
)

// Controller is the paper's dynamic scan-group selection (§4.5, §A.6): Run
// asks it at every epoch whether to tune and, when it does, which scan group
// to read next.
//
// CosineController measures the cosine similarity between each candidate
// group's full-batch gradient and the full-quality gradient and picks the
// smallest group above a threshold (§A.6.2). PlateauController implements
// the simpler §4.5 heuristic: when training loss plateaus, checkpoint the
// model, probe each candidate group for a few iterations, keep the cheapest
// group whose loss matches the best, and roll back the probe updates.
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
	Set   *PCRSet
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
	gRef, err := FullGradient(st.Set, st.Model, st.Task, ref)
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
		gg, err := FullGradient(st.Set, st.Model, st.Task, g)
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

// candidateGroups are the scan groups a controller chooses among and a
// mixture draws from: the paper's {1, 2, 5} below the set's group count,
// then full quality, the reference.
func candidateGroups(numGroups int) []int {
	var gs []int
	for _, g := range []int{1, 2, 5} {
		if g < numGroups {
			gs = append(gs, g)
		}
	}
	return append(gs, numGroups)
}

// drawGroup samples a record's scan group: the selected group with weight w
// against 1 for every other candidate (w=0 → always the selected group,
// drawing nothing from rng).
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
