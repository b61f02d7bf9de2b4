// Throughput: loading rates vs scan group on simulated storage (the
// Figure 9 / Figure 18 mechanism). Shows the paper's Observation 6 — image
// rates scale with the compression ratio until the compute roofline — and
// the Little's-law prediction of Appendix A.2.
//
//	go run ./examples/throughput
package main

import (
	"fmt"
	"log"

	"repro/internal/loader"
	"repro/internal/nn"
	"repro/internal/queueing"
	"repro/internal/synth"
	"repro/internal/train"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds, err := synth.Generate(synth.HAM10000.Scaled(0.5), 3)
	if err != nil {
		return err
	}
	set, err := train.BuildPCRSet(ds, 16)
	if err != nil {
		return err
	}
	mean, err := set.MeanImageBytesAtGroup(set.NumGroups)
	if err != nil {
		return err
	}

	for _, model := range nn.Profiles() {
		cluster, err := train.ScaledStorage(mean, set.ImagesPerRecord)
		if err != nil {
			return err
		}
		analytic := queueing.Pipeline{
			BandwidthBps:        cluster.AggregateBandwidth(),
			ComputeImagesPerSec: model.ClusterImagesPerSec,
		}
		fmt.Printf("%s (compute roof %.0f img/s, storage %.1f MB/s):\n",
			model.Name, model.ClusterImagesPerSec, cluster.AggregateBandwidth()/1e6)
		fmt.Printf("  %5s %12s %12s %12s %10s\n", "scan", "bytes/img", "simulated/s", "predicted/s", "stall")
		for _, g := range []int{1, 2, 5, set.NumGroups} {
			rb, err := set.RecordBytesAtGroup(g)
			if err != nil {
				return err
			}
			mb, err := set.MeanImageBytesAtGroup(g)
			if err != nil {
				return err
			}
			cluster.Reset()
			lc := set.PaperLoader(cluster, model, rb)
			lc.Passes = 10
			res, err := loader.Run(lc)
			if err != nil {
				return err
			}
			pred, err := analytic.SystemThroughput(mb)
			if err != nil {
				return err
			}
			fmt.Printf("  %5d %12.0f %12.0f %12.0f %9.2fs\n",
				g, mb, res.ImagesPerSec, pred, res.TotalStallSec)
		}
	}
	fmt.Println("\nsimulated rates track the min(compute, bandwidth/bytes) model of Appendix A.2;")
	fmt.Println("the faster model (shufflenet) gains more from lower scan groups.")
	return nil
}
