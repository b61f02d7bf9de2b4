package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/iosim"
	"repro/internal/loader"
	"repro/internal/nn"
	"repro/internal/queueing"
	"repro/internal/synth"
)

func init() {
	register(Experiment{
		ID: "fig9", Paper: "Figure 9",
		Desc: "training image rates per dataset and scan group, both models",
		Run:  runFig9,
	})
	register(Experiment{
		ID: "fig11", Paper: "Figure 11",
		Desc: "per-iteration data-load times: stalls shrink with lower scan groups",
		Run:  runFig11,
	})
	register(Experiment{
		ID: "fig14", Paper: "Figure 14",
		Desc: "throughput vs byte intensity: the data-roofline model",
		Run:  runFig14,
	})
	register(Experiment{
		ID: "fig18", Paper: "Figure 18",
		Desc: "reader microbenchmark on SSD: measured vs size-ratio-predicted throughput, batch times",
		Run:  runFig18,
	})
}

func runFig9(cfg *Config) error {
	header(cfg.Out, "Figure 9",
		"Training rates (images/s): more scans reduce the rate; fast models gain more")
	cluster, err := cfg.sharedCluster()
	if err != nil {
		return err
	}
	for _, m := range nn.Profiles() {
		fmt.Fprintf(cfg.Out, "%s (RAM ceiling %.0f img/s):\n", m.Name, m.ClusterImagesPerSec)
		fmt.Fprintf(cfg.Out, "  %-10s", "dataset")
		for _, g := range scanGroups {
			fmt.Fprintf(cfg.Out, " %10s", fmt.Sprintf("scan %d", g))
		}
		fmt.Fprintln(cfg.Out)
		for _, p := range synth.Profiles() {
			set, err := cfg.pcrSet(p)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "  %-10s", p.Name)
			for _, g := range scanGroups {
				gg := g
				if gg > set.NumGroups {
					gg = set.NumGroups
				}
				rb, err := set.RecordBytesAtGroup(gg)
				if err != nil {
					return err
				}
				cluster.Reset()
				lc := set.PaperLoader(cluster, m, rb)
				lc.Passes = 10
				res, err := loader.Run(lc)
				if err != nil {
					return err
				}
				fmt.Fprintf(cfg.Out, " %10.0f", res.ImagesPerSec)
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	return nil
}

func runFig11(cfg *Config) error {
	header(cfg.Out, "Figure 11",
		"Per-iteration data load time (s), HAM10000/ShuffleNet (most I/O-bound): lower scans shrink stalls")
	set, err := cfg.pcrSet(synth.HAM10000)
	if err != nil {
		return err
	}
	for _, g := range scanGroups {
		gg := g
		if gg > set.NumGroups {
			gg = set.NumGroups
		}
		rb, err := set.RecordBytesAtGroup(gg)
		if err != nil {
			return err
		}
		cluster, err := cfg.sharedCluster()
		if err != nil {
			return err
		}
		cluster.Reset()
		lc := set.PaperLoader(cluster, nn.ShuffleNetLike, rb)
		lc.Shuffle = rand.New(rand.NewSource(cfg.Seed))
		res, err := loader.Run(lc)
		if err != nil {
			return err
		}
		n := 24
		if n > len(res.StallSec) {
			n = len(res.StallSec)
		}
		fmt.Fprintf(cfg.Out, "%-9s stalls:", groupLabel(g, set.NumGroups))
		for _, s := range res.StallSec[:n] {
			fmt.Fprintf(cfg.Out, " %.3f", s)
		}
		fmt.Fprintf(cfg.Out, "  (total %.2fs)\n", res.TotalStallSec)
	}
	return nil
}

func runFig14(cfg *Config) error {
	header(cfg.Out, "Figure 14",
		"System throughput vs byte intensity: compute roof then bandwidth slope; scan groups marked")
	mean, err := cfg.referenceMeanBytes()
	if err != nil {
		return err
	}
	set, err := cfg.pcrSet(synth.ImageNet)
	if err != nil {
		return err
	}
	cluster, err := cfg.sharedCluster()
	if err != nil {
		return err
	}
	for _, m := range nn.Profiles() {
		p := queueing.Pipeline{
			BandwidthBps:        cluster.AggregateBandwidth(),
			ComputeImagesPerSec: m.ClusterImagesPerSec,
		}
		pts, err := p.Roofline(mean/20, mean*2, 12)
		if err != nil {
			return err
		}
		knee, err := p.CrossoverBytes()
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s (crossover at %.0f bytes/image):\n", m.Name, knee)
		for _, pt := range pts {
			regime := "compute-bound"
			if pt.IOBound {
				regime = "io-bound"
			}
			fmt.Fprintf(cfg.Out, "  %8.0f B/img -> %8.0f img/s (%s)\n", pt.BytesPerImage, pt.ImagesPerSec, regime)
		}
		// Mark where each scan group's mean byte intensity lands.
		fmt.Fprintf(cfg.Out, "  scan group byte intensities:")
		for _, g := range scanGroups {
			gg := g
			if gg > set.NumGroups {
				gg = set.NumGroups
			}
			mb, err := set.MeanImageBytesAtGroup(gg)
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " scan%d=%.0fB", g, mb)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

func runFig18(cfg *Config) error {
	header(cfg.Out, "Figure 18",
		"PCR reader microbenchmark on one SSD (CelebAHQ): measured vs size-predicted rates, batch latency")
	set, err := cfg.pcrSet(synth.CelebAHQ)
	if err != nil {
		return err
	}
	// Scale the SSD like the training storage so the balance matches the
	// paper's 400 MB/s drive against ~87 kB CelebAHQ images.
	mean, err := set.MeanImageBytesAtGroup(set.NumGroups)
	if err != nil {
		return err
	}
	spec := iosim.DeviceSpec{
		Name:         "scaled-ssd",
		BandwidthBps: iosim.SATASSD.BandwidthBps * mean / 87e3,
		SeekSec:      iosim.SATASSD.SeekSec,
	}
	fullRate := 0.0
	type row struct {
		g                    int
		measured, predicted  float64
		maxBatchSec, meanSec float64
	}
	var rows []row
	var fullMean float64
	for g := set.NumGroups; g >= 1; g-- {
		rb, err := set.RecordBytesAtGroup(g)
		if err != nil {
			return err
		}
		cluster, err := iosim.NewCluster(spec, 1)
		if err != nil {
			return err
		}
		res, err := loader.ReadOnlyRate(loader.Config{
			Cluster:         cluster,
			Threads:         8,
			RecordBytes:     rb,
			ImagesPerRecord: set.ImagesPerRecordList(),
			Passes:          10,
		})
		if err != nil {
			return err
		}
		mb, err := set.MeanImageBytesAtGroup(g)
		if err != nil {
			return err
		}
		if g == set.NumGroups {
			fullRate = res.ImagesPerSec
			fullMean = mb
		}
		var maxLoad, sumLoad float64
		for _, l := range res.LoadSec {
			if l > maxLoad {
				maxLoad = l
			}
			sumLoad += l
		}
		rows = append(rows, row{
			g:           g,
			measured:    res.ImagesPerSec,
			predicted:   fullRate * fullMean / mb,
			maxBatchSec: maxLoad,
			meanSec:     sumLoad / float64(len(res.LoadSec)),
		})
	}
	fmt.Fprintf(cfg.Out, "%5s %12s %12s %12s %12s\n", "scan", "measured/s", "predicted/s", "mean batch", "max batch")
	for i := len(rows) - 1; i >= 0; i-- {
		r := rows[i]
		fmt.Fprintf(cfg.Out, "%5d %12.0f %12.0f %11.4fs %11.4fs\n",
			r.g, r.measured, r.predicted, r.meanSec, r.maxBatchSec)
	}
	fmt.Fprintf(cfg.Out, "\nprediction rule: rate(g) = rate(10) x meanBytes(10)/meanBytes(g) (Theorem A.5)\n")
	return nil
}
