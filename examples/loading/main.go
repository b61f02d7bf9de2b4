// Example loading: the real-I/O training input pipeline.
//
// The program synthesizes a dataset on disk, then drives pcr.Loader the way
// a training job would: two distributed shard workers each stream their
// disjoint half of the records in a seeded windowed-shuffle order, batches
// come out decoded and fixed-size, and a PlateauPolicy cheapens the read
// quality mid-training when the (simulated-by-hand here) loss plateaus —
// the paper's §4.5 dynamic fidelity knob running over real files. Each
// epoch reports the measured bytes moved, images/s, and stall time
// (Appendix A.1's queueing quantities, measured instead of simulated).
//
// The final section is the warm restart: a worker with a persistent disk
// cache (WithDiskCache) and a loader checkpoint "crashes" mid-epoch; its
// replacement resumes at the same shuffled position (WithResume) and reads
// everything from the recovered cache — zero bytes from the dataset.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/pcr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "pcr-loading")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n, err := pcr.Synthesize(dir, "cars", 0.25, 1,
		pcr.WithImagesPerRecord(8), pcr.WithScanGroups(5))
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d images on disk at %s\n\n", n, dir)

	// Two shard workers partition the records: disjoint, covering, and
	// balanced — each worker opens its own shard of the dataset, exactly as
	// separate processes (or machines, via OpenRemote) would.
	fmt.Println("-- sharded epoch: two workers, disjoint record sets --")
	for shard := 0; shard < 2; shard++ {
		ds, err := pcr.Open(dir, pcr.WithShard(shard, 2))
		if err != nil {
			return err
		}
		l, err := pcr.NewLoader(ds,
			pcr.WithBatchSize(32),
			pcr.WithLoaderSeed(42),
			pcr.WithQuality(pcr.Full))
		if err != nil {
			ds.Close()
			return err
		}
		for _, err := range l.Epoch(context.Background(), 0) {
			if err != nil {
				ds.Close()
				return err
			}
		}
		st, _ := l.LastEpochStats()
		fmt.Printf("worker %d: %d records, %d images, %d batches, %.2f MB, %.0f img/s\n",
			shard, st.Records, st.Images, st.Batches, float64(st.BytesRead)/1e6, st.ImagesPerSec)
		ds.Close()
	}

	// Adaptive quality: a PlateauPolicy starts at full fidelity; when the
	// training loop reports plateauing losses, it steps the quality down —
	// and because the Loader re-resolves quality at record boundaries, the
	// epoch cheapens in flight.
	fmt.Println("\n-- adaptive epochs: plateau policy cheapens reads --")
	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(8))
	if err != nil {
		return err
	}
	defer ds.Close()
	policy := &pcr.PlateauPolicy{
		Detector: pcr.PlateauDetector{Window: 2, MinImprove: 0.05},
	}
	l, err := pcr.NewLoader(ds,
		pcr.WithBatchSize(32),
		pcr.WithQualityPolicy(policy))
	if err != nil {
		return err
	}
	fmt.Printf("%6s %10s %10s %10s %8s\n", "epoch", "MB moved", "img/s", "stall", "quality")
	loss := 1.0
	for epoch := 0; epoch < 4; epoch++ {
		for b, err := range l.Epoch(context.Background(), epoch) {
			if err != nil {
				return err
			}
			// A real job computes gradients here; we stand in a loss curve
			// that improves briefly and then flattens.
			if epoch == 0 {
				loss *= 0.9
			}
			policy.Report(loss)
			_ = b
		}
		st, _ := l.LastEpochStats()
		q := fmt.Sprint(st.MaxQuality)
		if st.MinQuality != st.MaxQuality {
			q = fmt.Sprintf("%d–%d", st.MinQuality, st.MaxQuality)
		}
		fmt.Printf("%6d %10.2f %10.0f %9.3fs %8s\n",
			epoch, float64(st.BytesRead)/1e6, st.ImagesPerSec, st.Stall.Seconds(), q)
	}
	fmt.Println("\nsame records, same labels — later epochs moved fewer bytes because")
	fmt.Println("quality is an I/O knob, re-resolved for every record read.")

	// Queryable dataset: a predicate over the sample metadata restricts
	// training to a subset without re-encoding anything. The selection is
	// planned from the index — records with no matching sample are never
	// read, partial matches become sparse range reads covering only the
	// selected samples — so the bytes moved track the subset, not the
	// dataset (and against OpenRemote the same plan is pushed down to the
	// server as a bitmap, moving only the selected bytes over the wire).
	fmt.Println("\n-- filtered epoch: label predicate pushed into the reads --")
	pred, err := pcr.ParseFilter("label IN (0, 1, 2)")
	if err != nil {
		return err
	}
	plan, err := ds.PlanFilter(pred, pcr.Full)
	if err != nil {
		return err
	}
	fmt.Printf("plan %q: %d of %d samples, %d of %d records skipped whole, %.1f%% of full bytes\n",
		pred, plan.Selected, plan.Total, plan.RecordsSkipped, plan.Records,
		100*float64(plan.Bytes)/float64(plan.FullBytes))
	lf, err := pcr.NewLoader(ds,
		pcr.WithBatchSize(32),
		pcr.WithLoaderFilter(pred))
	if err != nil {
		return err
	}
	for _, err := range lf.Epoch(context.Background(), 0) {
		if err != nil {
			return err
		}
	}
	if st, ok := lf.LastEpochStats(); ok {
		fmt.Printf("epoch: %d images delivered, %d filtered out; %.2f MB read, %.2f MB avoided\n",
			st.Images, st.SkippedImages, float64(st.BytesRead)/1e6, float64(st.BytesAvoided)/1e6)
	}

	// Warm restart: the first life trains with a persistent disk cache and
	// checkpoints after every batch; we stop it mid-epoch, as a crash
	// would. The second life mounts the same cache directory, resumes from
	// the checkpoint, and finishes the epoch — the position comes from the
	// checkpoint, the bytes come from the recovered cache.
	fmt.Println("\n-- warm restart: disk cache + checkpoint resume --")
	cacheDir, err := os.MkdirTemp("", "pcr-loading-cache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)

	ds1, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 256<<20))
	if err != nil {
		return err
	}
	l1, err := pcr.NewLoader(ds1, pcr.WithBatchSize(16), pcr.WithLoaderSeed(7))
	if err != nil {
		ds1.Close()
		return err
	}
	// Epoch 0 runs to completion, filling the cache with every record.
	for _, err := range l1.Epoch(context.Background(), 0) {
		if err != nil {
			ds1.Close()
			return err
		}
	}
	// Epoch 1 "crashes" two batches in.
	var cp pcr.Checkpoint
	batches := 0
	for _, err := range l1.Epoch(context.Background(), 1) {
		if err != nil {
			ds1.Close()
			return err
		}
		cp, _ = l1.Checkpoint() // a real job persists this with its weights
		if batches++; batches == 2 {
			break
		}
	}
	st1, _ := ds1.DiskCacheStats()
	ds1.Close() // the cache directory survives the "crash"
	fmt.Printf("first life:  epoch 0 done, crash %d batches into epoch 1; cache holds %.2f MB, checkpoint (epoch %d, batch %d)\n",
		batches, float64(st1.BytesFetched)/1e6, cp.Epoch, cp.Batch)

	ds2, err := pcr.Open(dir, pcr.WithDiskCache(cacheDir, 256<<20))
	if err != nil {
		return err
	}
	defer ds2.Close()
	l2, err := pcr.NewLoader(ds2, pcr.WithResume(cp))
	if err != nil {
		return err
	}
	rest := 0
	for _, err := range l2.Epoch(context.Background(), cp.Epoch) {
		if err != nil {
			return err
		}
		rest++
	}
	st2, _ := ds2.DiskCacheStats()
	fmt.Printf("second life: resumed at batch %d, finished %d more batches;\n", cp.Batch, rest)
	fmt.Printf("             %d cache entries recovered, %.2f MB refetched from the dataset\n",
		st2.Recovered, float64(st2.BytesFetched)/1e6)
	fmt.Println("\nthe restarted worker re-entered mid-epoch at the same shuffled position")
	fmt.Println("and its reads were served from the persistent cache — with OpenRemote,")
	fmt.Println("that is a second epoch of training at near-zero network cost.")
	return nil
}
