package experiments

import (
	"fmt"
	"math"

	"repro/internal/jpegc"
	"repro/internal/mssim"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/train"
)

func init() {
	register(Experiment{
		ID: "fig7", Paper: "Figure 7",
		Desc: "MSSIM vs final test accuracy: linear regression across scan groups (Cars/ShuffleNet)",
		Run:  runFig7,
	})
	register(Experiment{
		ID: "fig8", Paper: "Figure 8",
		Desc: "loss-plateau adaptive tuning on HAM10000: dynamic matches baseline accuracy faster",
		Run:  runFig8,
	})
	register(Experiment{
		ID: "fig19", Paper: "Figure 19",
		Desc: "cosine similarity between scan-group gradients and the full-quality gradient, with mixtures",
		Run:  runFig19,
	})
	register(Experiment{
		ID: "fig20", Paper: "Figure 20",
		Desc: "cosine-distance dynamic tuning on HAM10000 with mixture variants",
		Run:  runFig20,
	})
	register(Experiment{
		ID: "fig21", Paper: "Figures 21-22",
		Desc: "cosine-distance dynamic tuning on CelebAHQ plus per-epoch training rates",
		Run:  runFig21,
	})
}

func runFig7(cfg *Config) error {
	header(cfg.Out, "Figure 7",
		"Per-scan MSSIM vs final accuracy with a least-squares fit; groups cluster")
	p := synth.Cars
	set, err := cfg.pcrSet(p)
	if err != nil {
		return err
	}
	ds, err := cfg.dataset(p)
	if err != nil {
		return err
	}

	// Mean MSSIM of each scan group over a sample of images.
	n := 12
	if n > len(ds.Train) {
		n = len(ds.Train)
	}
	meanSim := map[int]float64{}
	for _, s := range ds.Train[:n] {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: p.JPEGQuality, Progressive: true, Subsample420: true})
		if err != nil {
			return err
		}
		idx, err := jpegc.IndexScans(data)
		if err != nil {
			return err
		}
		full, err := jpegc.Decode(data)
		if err != nil {
			return err
		}
		for _, g := range scanGroups {
			gg := g
			if gg > len(idx.Scans) {
				gg = len(idx.Scans)
			}
			trunc, err := jpegc.TruncateToScan(data, idx, gg)
			if err != nil {
				return err
			}
			img, err := jpegc.Decode(trunc)
			if err != nil {
				return err
			}
			sim, err := mssim.MSSIM(img, full)
			if err != nil {
				return err
			}
			meanSim[g] += sim / float64(n)
		}
	}

	// Final accuracy per scan group.
	task := synth.Multiclass(p)
	var xs, ys []float64
	fmt.Fprintf(cfg.Out, "%5s %8s %10s\n", "scan", "MSSIM", "final acc")
	for _, g := range scanGroups {
		gg := g
		if gg > set.NumGroups {
			gg = set.NumGroups
		}
		res, err := runOne(cfg, p, nn.ShuffleNetLike, task, gg)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%5d %8.4f %9.1f%%\n", g, meanSim[g], res.FinalAcc*100)
		xs = append(xs, meanSim[g])
		ys = append(ys, res.FinalAcc*100)
	}
	slope, intercept, r2 := linreg(xs, ys)
	fmt.Fprintf(cfg.Out, "\nlinear fit: acc%% = %.1f x MSSIM %+.1f (R^2 = %.3f)\n", slope, intercept, r2)
	fmt.Fprintf(cfg.Out, "paper reports a strong positive linear relationship (e.g. y = 405.0x - 331.0)\n")
	return nil
}

func linreg(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	// R² via correlation.
	denY := n*syy - sy*sy
	if denY == 0 {
		return slope, intercept, 1
	}
	r := (n*sxy - sx*sy) / math.Sqrt(den*denY)
	return slope, intercept, r * r
}

func runFig8(cfg *Config) error {
	header(cfg.Out, "Figure 8",
		"Plateau-probe adaptive tuning on HAM10000 vs static baseline (both models)")
	p := synth.HAM10000
	set, err := cfg.pcrSet(p)
	if err != nil {
		return err
	}
	task := synth.Multiclass(p)
	cluster, err := cfg.sharedCluster()
	if err != nil {
		return err
	}
	for _, m := range nn.Profiles() {
		base, err := runOne(cfg, p, m, task, set.NumGroups)
		if err != nil {
			return err
		}
		cluster.Reset()
		dyn, err := train.Run(set, train.RunConfig{
			Model: m, Task: task,
			ScanGroup:  set.NumGroups,
			Controller: &train.PlateauController{Window: 3, MinImprove: 0.08, ProbeSteps: 6, BatchSize: 24},
			Epochs:     cfg.epochsFor(p.Name),
			Seed:       cfg.Seed,
			Cluster:    cluster,
			EvalEvery:  2,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s:\n", m.Name)
		fmt.Fprintf(cfg.Out, "  static baseline: final %.1f%% in %.0fs\n", base.FinalAcc*100, base.TotalTimeSec)
		fmt.Fprintf(cfg.Out, "  dynamic plateau: final %.1f%% in %.0fs (%d switches)\n",
			dyn.FinalAcc*100, dyn.TotalTimeSec, dyn.GroupSwitches)
		fmt.Fprintf(cfg.Out, "  group trace:")
		for _, pt := range dyn.Points {
			fmt.Fprintf(cfg.Out, " %d", pt.Group)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

func runFig19(cfg *Config) error {
	header(cfg.Out, "Figure 19",
		"Gradient cosine similarity to the full-quality gradient (HAM10000/ShuffleNet), hard and mixed draws")
	p := synth.HAM10000
	set, err := cfg.pcrSet(p)
	if err != nil {
		return err
	}
	task := synth.Multiclass(p)
	model, err := nn.ShuffleNetLike.Build(train.FeatureLen, task.NumClasses, cfg.Seed)
	if err != nil {
		return err
	}
	// Measure at three training stages: init, mid, late.
	stages := []struct {
		name   string
		epochs int
	}{{"init", 0}, {"mid", 6}, {"late", 12}}
	feats, err := set.TrainFeatures(set.NumGroups)
	if err != nil {
		return err
	}
	labels := set.TrainLabels(task)
	trained := 0
	for _, stage := range stages {
		for trained < stage.epochs {
			g, _, _, err := model.Gradient(nn.Batch{X: feats, Y: labels})
			if err != nil {
				return err
			}
			model.Step(g, nn.ShuffleNetLike.LR, nn.ShuffleNetLike.Momentum)
			trained++
		}
		ref, err := train.FullGradient(set, model, task, set.NumGroups)
		if err != nil {
			return err
		}
		refFlat := ref.Flatten()
		fmt.Fprintf(cfg.Out, "%-5s:", stage.name)
		for _, g := range scanGroups {
			gg := g
			if gg > set.NumGroups {
				gg = set.NumGroups
			}
			grad, err := train.FullGradient(set, model, task, gg)
			if err != nil {
				return err
			}
			sim, err := nn.CosineSimilarity(grad.Flatten(), refFlat)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " scan%d=%.4f", g, sim)
		}
		// Mixed-draw gradients: 50% and 85% weight on scan 1.
		for _, mix := range []struct {
			name string
			frac float64
		}{{"mix50", 0.5}, {"mix85", 0.85}} {
			grad, err := mixedGradient(set, model, task, 1, mix.frac)
			if err != nil {
				return err
			}
			sim, err := nn.CosineSimilarity(grad.Flatten(), refFlat)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " %s(scan1)=%.4f", mix.name, sim)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintf(cfg.Out, "\nmixing raises the similarity of low scans (tolerance to biased gradients, §A.6.3)\n")
	return nil
}

// mixedGradient computes the full-batch gradient with each sample drawn from
// the selected group with probability frac, else from the reference group
// set, deterministically interleaved.
func mixedGradient(set *train.PCRSet, model *nn.MLP, task synth.Task, selected int, frac float64) (*nn.Grads, error) {
	selFeats, err := set.TrainFeatures(selected)
	if err != nil {
		return nil, err
	}
	groups := []int{1, 2, 5, set.NumGroups}
	all := make(map[int][][]float64)
	for _, g := range groups {
		f, err := set.TrainFeatures(g)
		if err != nil {
			return nil, err
		}
		all[g] = f
	}
	labels := set.TrainLabels(task)
	b := nn.Batch{}
	period := 1.0
	if frac < 1 {
		period = 1 / (1 - frac)
	}
	for i := range selFeats {
		useOther := frac < 1 && math.Mod(float64(i), period) < 1 && i%len(groups) != 0
		if useOther {
			g := groups[i%len(groups)]
			b.X = append(b.X, all[g][i])
		} else {
			b.X = append(b.X, selFeats[i])
		}
		b.Y = append(b.Y, labels[i])
	}
	grads, _, _, err := model.Gradient(b)
	return grads, err
}

func runFig20(cfg *Config) error {
	header(cfg.Out, "Figures 20",
		"Cosine-distance dynamic tuning on HAM10000: no-mix vs 50% vs 85% mixtures")
	return runCosineTuning(cfg, synth.HAM10000, []float64{0, 10, 100})
}

func runFig21(cfg *Config) error {
	header(cfg.Out, "Figures 21-22",
		"Cosine-distance dynamic tuning on CelebAHQ; per-epoch training rates (Figure 22)")
	if err := runCosineTuning(cfg, synth.CelebAHQ, []float64{0}); err != nil {
		return err
	}
	// Figure 22: rate per epoch of the dynamic run vs the static baseline.
	p := synth.CelebAHQ
	set, err := cfg.pcrSet(p)
	if err != nil {
		return err
	}
	task := synth.Multiclass(p)
	cluster, err := cfg.sharedCluster()
	if err != nil {
		return err
	}
	cluster.Reset()
	dyn, err := train.Run(set, train.RunConfig{
		Model: nn.ShuffleNetLike, Task: task,
		ScanGroup:  set.NumGroups,
		Controller: &train.CosineController{Threshold: 0.9, TuneEvery: 6, WarmupEpochs: 3},
		Epochs:     cfg.epochsFor(p.Name),
		Seed:       cfg.Seed,
		Cluster:    cluster,
	})
	if err != nil {
		return err
	}
	base, err := runOne(cfg, p, nn.ShuffleNetLike, task, set.NumGroups)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nFigure 22 epoch rates (images/s):\n  %-8s %10s %10s %6s\n", "epoch", "dynamic", "static", "group")
	for i, pt := range dyn.Points {
		staticRate := 0.0
		if i < len(base.Points) {
			staticRate = base.Points[i].ImagesPerSec
		}
		fmt.Fprintf(cfg.Out, "  %-8d %10.0f %10.0f %6d\n", pt.Epoch, pt.ImagesPerSec, staticRate, pt.Group)
	}
	return nil
}

func runCosineTuning(cfg *Config, p synth.Profile, mixWeights []float64) error {
	set, err := cfg.pcrSet(p)
	if err != nil {
		return err
	}
	task := synth.Multiclass(p)
	cluster, err := cfg.sharedCluster()
	if err != nil {
		return err
	}
	for _, m := range nn.Profiles() {
		base, err := runOne(cfg, p, m, task, set.NumGroups)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s / %s:\n  baseline: final %.1f%% in %.0fs\n",
			p.Name, m.Name, base.FinalAcc*100, base.TotalTimeSec)
		for _, w := range mixWeights {
			cluster.Reset()
			dyn, err := train.Run(set, train.RunConfig{
				Model: m, Task: task,
				ScanGroup:  set.NumGroups,
				Controller: &train.CosineController{Threshold: 0.9, TuneEvery: 6, WarmupEpochs: 3},
				Epochs:     cfg.epochsFor(p.Name),
				Seed:       cfg.Seed,
				MixWeight:  w,
				Cluster:    cluster,
			})
			if err != nil {
				return err
			}
			name := "no mix"
			switch w {
			case 10:
				name = "mix ~50%"
			case 100:
				name = "mix ~85%"
			}
			fmt.Fprintf(cfg.Out, "  dynamic (%s): final %.1f%% in %.0fs; groups:", name, dyn.FinalAcc*100, dyn.TotalTimeSec)
			for _, pt := range dyn.Points {
				fmt.Fprintf(cfg.Out, " %d", pt.Group)
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	return nil
}
