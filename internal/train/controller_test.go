package train

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/synth"
)

func carsSet(t testing.TB, n int) *PCRSet {
	t.Helper()
	p := synth.Cars
	p.NumImages = n
	p.ImageSize = 48
	ds, err := synth.Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildPCRSet(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestCosineControllerSchedule(t *testing.T) {
	c := &CosineController{TuneEvery: 10, WarmupEpochs: 5}
	var tunes []int
	for e := 0; e < 40; e++ {
		if c.ShouldTune(e, nil) {
			tunes = append(tunes, e)
		}
	}
	want := []int{5, 15, 25, 35}
	if len(tunes) != len(want) {
		t.Fatalf("tunes at %v, want %v", tunes, want)
	}
	for i := range want {
		if tunes[i] != want[i] {
			t.Fatalf("tunes at %v, want %v", tunes, want)
		}
	}
}

func TestPlateauDetection(t *testing.T) {
	p := &PlateauController{Window: 3, MinImprove: 0.05}
	// Strictly improving loss: no tuning.
	improving := []float64{3, 2.5, 2.0, 1.6, 1.3, 1.0}
	if p.ShouldTune(6, improving) {
		t.Error("tuned during improvement")
	}
	// Flat loss: tuning triggers.
	flat := []float64{3, 2.5, 1.0, 1.0, 1.0, 1.0}
	p2 := &PlateauController{Window: 3, MinImprove: 0.05}
	if !p2.ShouldTune(6, flat) {
		t.Error("did not tune on plateau")
	}
	// And not again immediately after.
	if p2.ShouldTune(7, append(flat, 1.0)) {
		t.Error("re-tuned within the cooldown window")
	}
}

func TestCosineTuneChoosesCheaperGroupForCoarseTask(t *testing.T) {
	// On the coarse task, early scans carry nearly the whole gradient, so
	// the controller should move off full quality.
	set := carsSet(t, 64)
	task := synth.CoarseOnly(set.Profile)
	model, err := nn.ShuffleNetLike.Build(FeatureLen, task.NumClasses, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{
		Set: set, Model: model, Task: task,
		Groups: []int{1, 2, 5, set.NumGroups},
		LR:     0.05, Momentum: 0.9,
		Bandwidth:           10e6,
		ComputeImagesPerSec: 7000,
		Rng:                 rand.New(rand.NewSource(1)),
	}
	c := &CosineController{Threshold: 0.9}
	g, probeSec, err := c.Tune(st)
	if err != nil {
		t.Fatal(err)
	}
	if g >= set.NumGroups {
		t.Errorf("controller stayed at full quality (group %d)", g)
	}
	if probeSec <= 0 {
		t.Error("no probe cost charged")
	}
}

func TestPlateauTuneRollsBack(t *testing.T) {
	set := carsSet(t, 48)
	task := synth.CoarseOnly(set.Profile)
	model, err := nn.ShuffleNetLike.Build(FeatureLen, task.NumClasses, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := model.Clone()
	st := &State{
		Set: set, Model: model, Task: task,
		Groups: []int{1, 5, set.NumGroups},
		LR:     0.05, Momentum: 0.9,
		Bandwidth:           10e6,
		ComputeImagesPerSec: 7000,
		Rng:                 rand.New(rand.NewSource(2)),
	}
	p := &PlateauController{ProbeSteps: 4, BatchSize: 16}
	g, probeSec, err := p.Tune(st)
	if err != nil {
		t.Fatal(err)
	}
	if g < 1 || g > set.NumGroups {
		t.Errorf("chose group %d", g)
	}
	if probeSec <= 0 {
		t.Error("no probe cost charged")
	}
	// The model must be rolled back exactly.
	for i := range before.W1 {
		if model.W1[i] != before.W1[i] {
			t.Fatal("probe updates were not rolled back")
		}
	}
}

func TestRunDynamicConvergesAndSwitches(t *testing.T) {
	set := carsSet(t, 96)
	task := synth.CoarseOnly(set.Profile)
	res, err := Run(set, RunConfig{
		Model: nn.ShuffleNetLike, Task: task,
		ScanGroup:  set.NumGroups,
		Controller: &CosineController{Threshold: 0.9, TuneEvery: 6, WarmupEpochs: 2},
		Epochs:     16,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 16 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Must start at full quality.
	if res.Points[0].Group != set.NumGroups {
		t.Errorf("first epoch at group %d, want %d", res.Points[0].Group, set.NumGroups)
	}
	// On the coarse task the controller should eventually drop the group
	// and the rate should rise.
	last := res.Points[len(res.Points)-1]
	if last.Group >= set.NumGroups {
		t.Errorf("never switched off full quality")
	}
	if res.GroupSwitches == 0 {
		t.Error("no switches recorded")
	}
	var rateFull, rateLow float64
	for _, pt := range res.Points {
		if pt.Group == set.NumGroups && rateFull == 0 {
			rateFull = pt.ImagesPerSec
		}
		if pt.Group < set.NumGroups {
			rateLow = pt.ImagesPerSec
		}
	}
	if rateLow <= rateFull {
		t.Errorf("low-group rate %.0f not above full-quality rate %.0f", rateLow, rateFull)
	}
	if res.FinalAcc < 0.5 {
		t.Errorf("final accuracy %.2f", res.FinalAcc)
	}
}

func TestRunMixture(t *testing.T) {
	// 128 images leave 25 for the test split; with the 12 of a 64-image set,
	// some seeds of a run that learns land at chance accuracy.
	set := carsSet(t, 128)
	task := synth.CoarseOnly(set.Profile)
	res, err := Run(set, RunConfig{
		Model: nn.ShuffleNetLike, Task: task,
		ScanGroup:  set.NumGroups,
		Controller: &CosineController{TuneEvery: 100, WarmupEpochs: 100}, // never tunes
		Epochs:     6,
		Seed:       5,
		MixWeight:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.FinalAcc <= 1.0/float64(task.NumClasses) {
		t.Errorf("mixture run at chance accuracy %.2f", res.FinalAcc)
	}
}

func TestDrawGroupDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	groups := []int{1, 2, 5, 10}
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[drawGroup(5, groups, 10, rng)]++
	}
	// Weight 10 vs 3 others → selected probability 10/13 ≈ 0.77.
	sel := float64(counts[5]) / n
	if sel < 0.73 || sel > 0.81 {
		t.Errorf("selected fraction %.3f, want ~0.77", sel)
	}
	for _, g := range []int{1, 2, 10} {
		frac := float64(counts[g]) / n
		if frac < 0.04 || frac > 0.12 {
			t.Errorf("group %d fraction %.3f, want ~0.077", g, frac)
		}
	}
	// Hard selection.
	if g := drawGroup(5, groups, 0, rng); g != 5 {
		t.Errorf("hard selection returned %d", g)
	}
}

func TestRunControllerValidation(t *testing.T) {
	set := carsSet(t, 24)
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"zero epochs", RunConfig{ScanGroup: set.NumGroups, Epochs: 0}},
		{"start group past the set's", RunConfig{ScanGroup: set.NumGroups + 1, Epochs: 1}},
	} {
		tc.cfg.Model, tc.cfg.Task = nn.ResNetLike, synth.Multiclass(set.Profile)
		tc.cfg.Controller = &CosineController{}
		if _, err := Run(set, tc.cfg); err == nil {
			t.Errorf("%s accepted under a controller", tc.name)
		}
	}
}

// A controller that never reaches a tuning point leaves the run exactly as
// static training at the same group: same curve, same clock.
func TestIdleControllerMatchesStatic(t *testing.T) {
	set := carsSet(t, 48)
	cfg := RunConfig{
		Model: nn.ShuffleNetLike, Task: synth.CoarseOnly(set.Profile),
		ScanGroup: set.NumGroups, Epochs: 5, Seed: 7, EvalEvery: 2,
	}
	static, err := Run(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Controller{
		&CosineController{TuneEvery: 100, WarmupEpochs: 100},
		&PlateauController{Window: 100},
	} {
		cfg.Controller = c
		idle, err := Run(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(idle.Points, static.Points) || idle.TotalTimeSec != static.TotalTimeSec || idle.GroupSwitches != 0 {
			t.Errorf("%s controller that never tunes changed the run:\n got %+v\nwant %+v", c.Name(), idle.Points, static.Points)
		}
	}
}
