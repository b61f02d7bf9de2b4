package train

import (
	"image"
	"image/color"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/synth"
)

func smallSet(t testing.TB, p synth.Profile, n int) *PCRSet {
	t.Helper()
	p.NumImages = n
	ds, err := synth.Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildPCRSet(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestFeaturizeRangeAndShape(t *testing.T) {
	img := image.NewRGBA(image.Rect(0, 0, 50, 40))
	for y := 0; y < 40; y++ {
		for x := 0; x < 50; x++ {
			img.SetRGBA(x, y, color.RGBA{uint8(x * 5), uint8(y * 6), 100, 255})
		}
	}
	f := Featurize(img)
	if len(f) != FeatureLen {
		t.Fatalf("len = %d", len(f))
	}
	for i, v := range f {
		if v < -1 || v > 1 {
			t.Fatalf("feature %d = %v out of [-1,1]", i, v)
		}
	}
	// A black image maps to all −1.
	black := image.NewRGBA(image.Rect(0, 0, 8, 8))
	for i := 3; i < len(black.Pix); i += 4 {
		black.Pix[i] = 255
	}
	for _, v := range Featurize(black) {
		if v != -1 {
			t.Fatalf("black feature = %v", v)
		}
	}
}

func TestBuildPCRSetBasics(t *testing.T) {
	p := synth.Cars
	p.ImageSize = 48
	p.NumImages = 60
	ds, err := synth.Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One group per scan (the default), then the scans coalesced into 4.
	for _, tc := range []struct {
		name                   string
		scanGroups, wantGroups int
	}{{"per_scan", 0, 10}, {"four_groups", 4, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			set, err := BuildPCRSetGrouped(ds, 16, tc.scanGroups)
			if err != nil {
				t.Fatal(err)
			}
			if set.NumGroups != tc.wantGroups {
				t.Fatalf("NumGroups = %d, want %d", set.NumGroups, tc.wantGroups)
			}
			if set.NumTrain() != 48 || len(set.testLabels) != 12 {
				t.Fatalf("split %d/%d", set.NumTrain(), len(set.testLabels))
			}
			if set.NumRecords() != 3 {
				t.Fatalf("records = %d", set.NumRecords())
			}
			// No-space-overhead invariant at dataset scale.
			ratio := float64(set.PCRBytes) / float64(set.BaselineBytes)
			if ratio > 1.15 {
				t.Errorf("PCR/baseline = %.3f", ratio)
			}
			// Prefix bytes strictly increase with scan group; the last group
			// equals the record size.
			for g := 1; g < set.NumGroups; g++ {
				a, err := set.RecordBytesAtGroup(g)
				if err != nil {
					t.Fatal(err)
				}
				b, err := set.RecordBytesAtGroup(g + 1)
				if err != nil {
					t.Fatal(err)
				}
				for r := range a {
					if a[r] >= b[r] {
						t.Fatalf("record %d: prefix(%d)=%d !< prefix(%d)=%d", r, g, a[r], g+1, b[r])
					}
				}
			}
			if tc.scanGroups != 0 {
				return
			}
			// Scan group 1 should cut bytes by at least 3x (the paper sees 2–10x).
			m1, _ := set.MeanImageBytesAtGroup(1)
			m10, _ := set.MeanImageBytesAtGroup(10)
			if m10/m1 < 3 {
				t.Errorf("scan 1 reduction only %.2fx", m10/m1)
			}
		})
	}
}

func TestFeaturesCachedAndDistinctAcrossGroups(t *testing.T) {
	p := synth.Cars
	p.ImageSize = 48
	set := smallSet(t, p, 30)
	f1, err := set.TrainFeatures(1)
	if err != nil {
		t.Fatal(err)
	}
	f1again, err := set.TrainFeatures(1)
	if err != nil {
		t.Fatal(err)
	}
	if &f1[0][0] != &f1again[0][0] {
		t.Error("features not cached")
	}
	f10, err := set.TrainFeatures(10)
	if err != nil {
		t.Fatal(err)
	}
	// Scan-1 features must differ from scan-10 features (lost detail), but
	// not wildly (same low-frequency content).
	var dist, norm float64
	for i := range f1 {
		for j := range f1[i] {
			d := f1[i][j] - f10[i][j]
			dist += d * d
			norm += f10[i][j] * f10[i][j]
		}
	}
	rel := math.Sqrt(dist / norm)
	if rel < 0.001 || rel > 1.0 {
		t.Errorf("relative feature distance scan1 vs scan10 = %.4f", rel)
	}
	if _, err := set.TrainFeatures(99); err == nil {
		t.Error("bad group accepted")
	}
	if _, err := set.TestFeatures(0); err == nil {
		t.Error("group 0 accepted")
	}
}

func TestRunProducesLearningCurve(t *testing.T) {
	p := synth.Cars
	p.ImageSize = 48
	set := smallSet(t, p, 96)
	res, err := Run(set, RunConfig{
		Model:     nn.ShuffleNetLike,
		Task:      synth.CoarseOnly(set.Profile),
		ScanGroup: set.NumGroups,
		Epochs:    12,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 12 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Errorf("loss did not decrease: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	if res.FinalAcc <= 1.0/float64(synth.CoarseOnly(set.Profile).NumClasses)+0.05 {
		t.Errorf("final acc %.3f barely above chance", res.FinalAcc)
	}
	// Virtual time must increase monotonically.
	prev := 0.0
	for _, pt := range res.Points {
		if pt.TimeSec <= prev {
			t.Fatalf("time not increasing at epoch %d", pt.Epoch)
		}
		prev = pt.TimeSec
	}
	if res.BytesPerEpoch <= 0 {
		t.Error("no bytes charged")
	}
}

func TestLowerScanGroupIsFasterPerEpoch(t *testing.T) {
	p := synth.Cars
	p.ImageSize = 48
	set := smallSet(t, p, 96)
	task := synth.CoarseOnly(set.Profile)
	timing := func(g int) float64 {
		res, err := Run(set, RunConfig{
			Model: nn.ShuffleNetLike, Task: task,
			ScanGroup: g, Epochs: 2, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalTimeSec
	}
	t1 := timing(1)
	t10 := timing(10)
	if t1 >= t10 {
		t.Errorf("scan 1 epoch time %.3f not faster than scan 10 %.3f", t1, t10)
	}
	// The paper's headline: roughly 2x or more speedup for low scans on
	// bandwidth-bound models.
	if t10/t1 < 1.5 {
		t.Errorf("speedup only %.2fx", t10/t1)
	}
}

func TestRunValidation(t *testing.T) {
	p := synth.Cars
	p.ImageSize = 48
	set := smallSet(t, p, 24)
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"scan group 0", RunConfig{ScanGroup: 0, Epochs: 1}},
		{"zero epochs", RunConfig{ScanGroup: 1, Epochs: 0}},
	} {
		tc.cfg.Model, tc.cfg.Task = nn.ResNetLike, synth.Multiclass(set.Profile)
		if _, err := Run(set, tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// A small static Cars run, pinned: the simulated clock, the accuracy and
// the loss curve's ends must not move when the trainer is refactored.
func TestRunStaticGolden(t *testing.T) {
	p := synth.Cars
	p.ImageSize = 48
	set := smallSet(t, p, 96)
	res, err := Run(set, RunConfig{
		Model: nn.ShuffleNetLike, Task: synth.CoarseOnly(set.Profile),
		ScanGroup: 2, Epochs: 8, Seed: 3, EvalEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"TotalTimeSec", res.TotalTimeSec, 0.20133434828068261},
		{"FinalAcc", res.FinalAcc, 6.0 / 19},
		{"first TrainLoss", res.Points[0].TrainLoss, 1.8334632703384777},
		{"last TrainLoss", res.Points[len(res.Points)-1].TrainLoss, 1.5523396857021083},
	} {
		// Relative 1e-9 absorbs fused multiply-adds on other
		// architectures; a change to the run's arithmetic or RNG order
		// moves these by far more.
		if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("%s = %.17g, want %.17g", c.name, c.got, c.want)
		}
	}
}

func TestTimeToAccuracy(t *testing.T) {
	r := &RunResult{Points: []EpochPoint{
		{Epoch: 0, TimeSec: 10, TestAcc: 0.3, Sampled: true},
		{Epoch: 1, TimeSec: 20, TestAcc: 0.6, Sampled: true},
		{Epoch: 2, TimeSec: 30, TestAcc: 0.9, Sampled: true},
	}}
	if tt, ok := r.TimeToAccuracy(0.5); !ok || tt != 20 {
		t.Errorf("tta(0.5) = %v, %v", tt, ok)
	}
	if _, ok := r.TimeToAccuracy(0.95); ok {
		t.Error("unreached target reported")
	}
}

func TestScaledStorageBalance(t *testing.T) {
	// The scaled cluster must deliver images at the same rate relative to
	// model compute as the paper's testbed: ~3860 img/s of full-quality
	// delivery against ResNet's 4240 and ShuffleNet's 7180.
	cluster, err := ScaledStorage(2500, 32)
	if err != nil {
		t.Fatal(err)
	}
	rate := cluster.AggregateBandwidth() / 2500
	if rate < 3500 || rate > 4200 {
		t.Errorf("scaled delivery rate %.0f img/s, want ~3860", rate)
	}
	if _, err := ScaledStorage(0, 32); err == nil {
		t.Error("zero mean size accepted")
	}
}

func TestFullGradientAcrossGroupsCosine(t *testing.T) {
	// Gradient at scan 10 vs itself is 1; gradient at scan 1 is positively
	// correlated but not identical (Figure 19's structure).
	p := synth.Cars
	p.ImageSize = 48
	set := smallSet(t, p, 48)
	task := synth.Multiclass(set.Profile)
	model, err := nn.ShuffleNetLike.Build(FeatureLen, task.NumClasses, 7)
	if err != nil {
		t.Fatal(err)
	}
	g10, err := FullGradient(set, model, task, 10)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := FullGradient(set, model, task, 1)
	if err != nil {
		t.Fatal(err)
	}
	self, err := nn.CosineSimilarity(g10.Flatten(), g10.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(self-1) > 1e-9 {
		t.Errorf("self cosine = %v", self)
	}
	cross, err := nn.CosineSimilarity(g1.Flatten(), g10.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	if cross <= 0.2 || cross >= 0.9999 {
		t.Errorf("scan1-vs-scan10 cosine = %v, want in (0.2, 1)", cross)
	}
}
