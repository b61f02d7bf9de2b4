// Command pcrtrain runs one training configuration of the reproduction
// harness over real I/O: the dataset is written to (or opened from) disk —
// or served by a pcrserved URL — and every epoch streams through pcr.Loader
// (shuffled, batch-assembled, quality-adaptive), reporting measured bytes
// moved, images/s, and stall time per epoch.
//
//	pcrtrain -dataset cars -model shufflenetlike -task multiclass -group 2
//	pcrtrain -dataset cars -dynamic plateau -epochs 12
//	pcrtrain -dataset cars -data /tmp/cars-pcr            # reuse a dataset dir
//	pcrtrain -dataset cars -data http://localhost:8100    # train over the wire
//	pcrtrain -data /tmp/cars-pcr -disk-cache-dir /tmp/dc  # run twice: the second run reads warm
//	pcrtrain -data http://localhost:8100 -shards 4 -shard 1  # one of four data-parallel workers
//
// -shards n -shard i opens the dataset, local or remote, as stride shard i
// of n (pcr.WithShard): this worker trains on records r with r % n == i,
// and a remote worker downloads only that share of the index.
//
// -disk-cache-dir mounts a persistent prefix cache (one directory per
// worker). Reopening it reads no cached byte; each entry is CRC-checked on
// its first read, and a torn one is refetched, never served.
//
// The paper's figures, which run on a virtual clock under the paper's
// hardware balance, are regenerated by cmd/experiments instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/nn"
	"repro/internal/realtrain"
	"repro/internal/synth"
	"repro/pcr"
)

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.dataset, "dataset", "cars", "synthetic profile: imagenet, celebahq, ham10000, cars")
	flag.StringVar(&cfg.data, "data", "", "dataset directory or pcrserved URL(s), comma-separated fleet seeds allowed (empty: synthesize into a temp dir)")
	flag.StringVar(&cfg.model, "model", "shufflenetlike", "resnetlike or shufflenetlike")
	flag.StringVar(&cfg.task, "task", "multiclass", "multiclass, make-only, binary")
	flag.IntVar(&cfg.group, "group", 0, "scan group / quality (0 = full quality)")
	flag.StringVar(&cfg.dynamic, "dynamic", "", "dynamic tuning: plateau or probe")
	flag.IntVar(&cfg.probeSteps, "probe-steps", 4, "minibatches trained per candidate quality during an upward probe (-dynamic probe)")
	flag.Float64Var(&cfg.probeTol, "probe-tolerance", 0.05, "upward probe accepts the cheapest quality within (1+tol)x of the best probe loss")
	flag.IntVar(&cfg.epochs, "epochs", 8, "epoch budget")
	flag.IntVar(&cfg.batch, "batch", 32, "SGD minibatch size")
	flag.Float64Var(&cfg.scale, "scale", 0.5, "dataset size multiplier (when synthesizing)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed")
	flag.IntVar(&cfg.imagesPerRecord, "images-per-record", 16, "record batching factor (when synthesizing)")
	flag.IntVar(&cfg.scanGroups, "scan-groups", 5, "scan-group coalescing (when synthesizing; 0 = one group per scan)")
	flag.IntVar(&cfg.shards, "shards", 1, "total distributed shards")
	flag.IntVar(&cfg.shard, "shard", 0, "this worker's shard index")
	flag.Int64Var(&cfg.cacheMB, "cache-mb", 0, "LRU prefix cache budget in MiB (0 = no cache)")
	flag.StringVar(&cfg.diskCacheDir, "disk-cache-dir", "", "persistent prefix cache directory, one per worker (empty = no disk tier)")
	flag.Int64Var(&cfg.diskCacheMB, "disk-cache-mb", 512, "persistent prefix cache budget in MiB")
	flag.Parse()
	if _, err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pcrtrain:", err)
		os.Exit(1)
	}
}

type cliConfig struct {
	dataset, data, model, task, dynamic string
	group, epochs, batch                int
	imagesPerRecord, scanGroups         int
	shards, shard                       int
	scale                               float64
	seed, cacheMB                       int64
	diskCacheDir                        string
	diskCacheMB                         int64
	probeSteps                          int
	probeTol                            float64
}

// run trains through pcr.Loader over a real local or remote dataset. It
// returns the measured result so tests can assert on bytes moved and losses.
func run(w io.Writer, cfg cliConfig) (*realtrain.Result, error) {
	mp, err := nn.ProfileByName(cfg.model)
	if err != nil {
		return nil, err
	}
	profile, err := synth.ProfileByName(cfg.dataset)
	if err != nil {
		return nil, err
	}
	task, err := taskByName(cfg.task, profile)
	if err != nil {
		return nil, err
	}

	var policy pcr.QualityPolicy
	var probe *pcr.ProbePolicy
	switch cfg.dynamic {
	case "":
		policy = pcr.FixedQuality(cfg.group) // group 0 == pcr.Full
	case "plateau":
		policy = &pcr.PlateauPolicy{
			Detector: pcr.PlateauDetector{Window: 3, MinImprove: 0.05},
		}
	case "probe":
		probe = &pcr.ProbePolicy{
			Detector:   pcr.PlateauDetector{Window: 3, MinImprove: 0.05},
			ProbeSteps: cfg.probeSteps,
			Tolerance:  cfg.probeTol,
		}
		policy = probe
	case "cosine":
		return nil, fmt.Errorf("cosine tuning needs full-quality gradient probes; it runs on the virtual clock: go run ./cmd/experiments -run fig20")
	default:
		return nil, fmt.Errorf("unknown controller %q", cfg.dynamic)
	}

	// Resolve the dataset: a served URL, an existing directory, or a fresh
	// synthesis into a temp dir.
	data := cfg.data
	remote := strings.HasPrefix(data, "http://") || strings.HasPrefix(data, "https://")
	if data == "" {
		dir, err := os.MkdirTemp("", "pcrtrain-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		n, err := pcr.Synthesize(dir, cfg.dataset, cfg.scale, cfg.seed,
			pcr.WithImagesPerRecord(cfg.imagesPerRecord),
			pcr.WithScanGroups(cfg.scanGroups))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "synthesized %s ×%g: %d images → %s\n", cfg.dataset, cfg.scale, n, dir)
		data = dir
	}
	openOpts := []pcr.Option{pcr.WithCacheBytes(cfg.cacheMB << 20), pcr.WithShard(cfg.shard, cfg.shards)}
	if cfg.diskCacheDir != "" {
		openOpts = append(openOpts, pcr.WithDiskCache(cfg.diskCacheDir, cfg.diskCacheMB<<20))
	}
	var ds *pcr.Dataset
	if remote {
		ds, err = pcr.OpenRemote(data, openOpts...)
	} else {
		ds, err = pcr.Open(data, openOpts...)
	}
	if err != nil {
		return nil, err
	}
	defer ds.Close()

	where := "local"
	if remote {
		where = "remote"
	}
	fmt.Fprintf(w, "dataset %s (%s): %d records, %d images, %d quality levels\n",
		data, where, ds.NumRecords(), ds.NumImages(), ds.Qualities())
	fmt.Fprintf(w, "model=%s task=%s (%d classes) epochs=%d batch=%d shard %d/%d\n\n",
		mp.Name, task.Name, task.NumClasses, cfg.epochs, cfg.batch, cfg.shard, cfg.shards)

	res, err := realtrain.Run(context.Background(), ds, realtrain.Config{
		Model:     mp,
		Task:      task,
		Epochs:    cfg.epochs,
		BatchSize: cfg.batch,
		Seed:      cfg.seed,
		Policy:    policy,
	})
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %8s\n", "epoch", "loss", "img/s", "MB moved", "stall", "quality")
	for _, p := range res.Epochs {
		st := p.Stats
		q := fmt.Sprintf("%d", st.MaxQuality)
		if st.MinQuality != st.MaxQuality {
			q = fmt.Sprintf("%d–%d", st.MinQuality, st.MaxQuality)
		}
		fmt.Fprintf(w, "%6d %10.4f %10.0f %10.2f %9.3fs %8s\n",
			p.Epoch, p.TrainLoss, st.ImagesPerSec,
			float64(st.BytesRead)/1e6, st.Stall.Seconds(), q)
	}
	fmt.Fprintf(w, "\nfinal loss %.4f; %.2f MB moved in %v\n",
		res.FinalLoss, float64(res.TotalBytes)/1e6, res.TotalWall.Round(time.Millisecond))
	if probe != nil {
		if run, wins := probe.Probes(); run > 0 {
			var probeBytes int64
			for _, p := range res.Epochs {
				probeBytes += p.Stats.ProbeBytes
			}
			fmt.Fprintf(w, "probes: %d upward, %d re-ascended quality; %.2f MB probe reads, model updates rolled back\n",
				run, wins, float64(probeBytes)/1e6)
		}
	}
	if st, ok := ds.DiskCacheStats(); ok {
		fmt.Fprintf(w, "disk cache: %d hits, %d delta hits, %d misses; %.2f MB fetched upstream (%.2f MB delta); %d entries recovered warm\n",
			st.Hits, st.DeltaHits, st.Misses, float64(st.BytesFetched)/1e6, float64(st.DeltaBytes)/1e6, st.Recovered)
	}
	return res, nil
}

func taskByName(name string, profile synth.Profile) (synth.Task, error) {
	switch name {
	case "multiclass":
		return synth.Multiclass(profile), nil
	case "make-only":
		return synth.CoarseOnly(profile), nil
	case "binary":
		return synth.Binary(profile, 0)
	default:
		return synth.Task{}, fmt.Errorf("unknown task %q", name)
	}
}
