// Autotuning: dynamic scan-group selection during training (§4.5, §A.6).
//
// Part 1 (virtual clock): training starts at full quality; a
// gradient-cosine controller measures how well each scan group's gradient
// agrees with the full-quality gradient and drops to the cheapest group
// above the agreement threshold.
//
// Part 2 (real I/O): the bidirectional §4.5 controller over a real
// dataset — pcr.ProbePolicy descends one quality level on each loss
// plateau and, after every learning-rate drop, probes the higher qualities
// with a few checkpointed-and-rolled-back minibatches, re-ascending when
// the extra scans demonstrably help.
//
//	go run ./examples/autotuning
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/nn"
	"repro/internal/realtrain"
	"repro/internal/synth"
	"repro/internal/train"
	"repro/pcr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	if err := runProbe(); err != nil {
		log.Fatal(err)
	}
}

// runProbe trains over real I/O with the bidirectional probe controller.
func runProbe() error {
	fmt.Println("\n-- real I/O: bidirectional §4.5 controller (descend + upward probes) --")
	dir, err := os.MkdirTemp("", "autotune-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, err := pcr.Synthesize(dir, "cars", 0.2, 11,
		pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)); err != nil {
		return err
	}
	ds, err := pcr.Open(dir)
	if err != nil {
		return err
	}
	defer ds.Close()

	profile, err := synth.ProfileByName("cars")
	if err != nil {
		return err
	}
	policy := &pcr.ProbePolicy{
		Detector:   pcr.PlateauDetector{Window: 3, MinImprove: 0.05},
		ProbeSteps: 4,
		Tolerance:  0.05,
	}
	res, err := realtrain.Run(context.Background(), ds, realtrain.Config{
		Model:     nn.ShuffleNetLike,
		Task:      synth.Multiclass(profile),
		Epochs:    15,
		BatchSize: 16,
		Seed:      11,
		Policy:    policy,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%6s %10s %10s %10s\n", "epoch", "loss", "MB moved", "quality")
	for _, p := range res.Epochs {
		q := fmt.Sprintf("%d", p.Stats.MaxQuality)
		if p.Stats.MinQuality != p.Stats.MaxQuality {
			q = fmt.Sprintf("%d-%d", p.Stats.MinQuality, p.Stats.MaxQuality)
		}
		fmt.Printf("%6d %10.4f %10.2f %10s\n",
			p.Epoch, p.TrainLoss, float64(p.Stats.BytesRead)/1e6, q)
	}
	var probeBytes int64
	for _, p := range res.Epochs {
		probeBytes += p.Stats.ProbeBytes
	}
	run, wins := policy.Probes()
	fmt.Printf("\n%d upward probes (%d won), %.2f MB probe reads, final quality %d\n",
		run, wins, float64(probeBytes)/1e6, policy.Quality())
	return nil
}

func run() error {
	ds, err := synth.Generate(synth.HAM10000.Scaled(0.6), 11)
	if err != nil {
		return err
	}
	set, err := train.BuildPCRSet(ds, 16)
	if err != nil {
		return err
	}

	task := synth.Multiclass(set.Profile)
	const epochs = 24

	// Static baseline: always read every scan group.
	base, err := train.Run(set, train.RunConfig{
		Model: nn.ShuffleNetLike, Task: task,
		ScanGroup: set.NumGroups, Epochs: epochs, Seed: 2, EvalEvery: 4,
	})
	if err != nil {
		return err
	}

	// Dynamic: cosine-similarity controller with threshold 0.9.
	dyn, err := train.Run(set, train.RunConfig{
		Model: nn.ShuffleNetLike, Task: task, ScanGroup: set.NumGroups,
		Controller: &train.CosineController{Threshold: 0.9, TuneEvery: 8, WarmupEpochs: 3},
		Epochs:     epochs, Seed: 2, EvalEvery: 4,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%-8s %10s %10s %8s\n", "epoch", "static t", "dynamic t", "group")
	for i := range dyn.Points {
		fmt.Printf("%-8d %9.2fs %9.2fs %8d\n",
			i, base.Points[i].TimeSec, dyn.Points[i].TimeSec, dyn.Points[i].Group)
	}
	fmt.Printf("\nstatic baseline: final %.1f%% in %.2fs\n", base.FinalAcc*100, base.TotalTimeSec)
	fmt.Printf("dynamic tuning:  final %.1f%% in %.2fs (%d group switches)\n",
		dyn.FinalAcc*100, dyn.TotalTimeSec, dyn.GroupSwitches)
	if dyn.TotalTimeSec < base.TotalTimeSec {
		fmt.Printf("speedup: %.2fx with no accuracy target given up\n", base.TotalTimeSec/dyn.TotalTimeSec)
	}
	return nil
}
