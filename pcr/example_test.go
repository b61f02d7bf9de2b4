package pcr_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/pcr"
)

// Create a PCR dataset from a synthetic profile, then stream it back at two
// quality levels. The byte counts show the paper's trade-off: quality 1
// reads a fraction of the full dataset with one sequential prefix read per
// record.
func Example() {
	dir, err := os.MkdirTemp("", "pcr-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	n, err := pcr.Synthesize(dir, "cars", 0.1, 1, pcr.WithImagesPerRecord(16))
	if err != nil {
		log.Fatal(err)
	}

	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()

	ctx := context.Background()
	for _, q := range []int{1, pcr.Full} {
		decoded := 0
		for s, err := range ds.Scan(ctx, q) {
			if err != nil {
				log.Fatal(err)
			}
			if s.Image != nil {
				decoded++
			}
		}
		fmt.Printf("quality %d: decoded %d of %d images\n", q, decoded, n)
	}
	lo, _ := ds.SizeAtQuality(1)
	hi, _ := ds.SizeAtQuality(pcr.Full)
	fmt.Printf("quality 1 reads fewer bytes than full: %v\n", lo < hi)
	// Output:
	// quality 1: decoded 31 of 31 images
	// quality 0: decoded 31 of 31 images
	// quality 1 reads fewer bytes than full: true
}

// A PlateauPolicy lowers the read quality one level each time the reported
// training loss plateaus (the paper's §4.5 heuristic). Here the loss is
// reported once per epoch, so each epoch reads at one quality; the detector
// compares the last report against the one before it and calls a plateau
// when the loss improved by less than 5%.
func ExamplePlateauPolicy() {
	dir, err := os.MkdirTemp("", "pcr-plateau-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 1,
		pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)); err != nil {
		log.Fatal(err)
	}
	ds, err := pcr.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()

	policy := &pcr.PlateauPolicy{
		Detector: pcr.PlateauDetector{Window: 1, MinImprove: 0.05},
		Min:      2,
	}
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(16), pcr.WithQualityPolicy(policy))
	if err != nil {
		log.Fatal(err)
	}
	// A training job would report the mean loss its model observed.
	for epoch, loss := range []float64{1.0, 0.6, 0.59, 0.58, 0.57} {
		for _, err := range l.Epoch(context.Background(), epoch) {
			if err != nil {
				log.Fatal(err)
			}
		}
		st, _ := l.LastEpochStats()
		fmt.Printf("epoch %d: quality %d, loss %.2f\n", epoch, st.MaxQuality, loss)
		policy.Report(loss)
	}
	// Output:
	// epoch 0: quality 4, loss 1.00
	// epoch 1: quality 4, loss 0.60
	// epoch 2: quality 4, loss 0.59
	// epoch 3: quality 3, loss 0.58
	// epoch 4: quality 2, loss 0.57
}

// Switching storage layouts is one option: the write loop and the scan loop
// are identical for PCR, TFRecord, and file-per-image datasets.
func Example_formatSwitch() {
	ctx := context.Background()
	for _, format := range pcr.Formats() {
		dir, err := os.MkdirTemp("", "pcr-format-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)

		// The only per-format line is the option itself.
		if _, err := pcr.Synthesize(dir, "cars", 0.05, 1, pcr.WithFormat(format)); err != nil {
			log.Fatal(err)
		}
		ds, err := pcr.Open(dir, pcr.WithFormat(format))
		if err != nil {
			log.Fatal(err)
		}
		images := 0
		for s, err := range ds.Scan(ctx, pcr.Full) {
			if err != nil {
				log.Fatal(err)
			}
			if s.Image != nil {
				images++
			}
		}
		fmt.Printf("%-12s %d images, %d quality level(s)\n", ds.Format().Name(), images, ds.Qualities())
		ds.Close()
	}
	// Output:
	// pcr          20 images, 10 quality level(s)
	// tfrecord     20 images, 1 quality level(s)
	// fileperimage 20 images, 1 quality level(s)
}
