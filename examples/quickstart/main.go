// Quickstart: create a PCR dataset on disk through the public pcr package,
// stream it back at several quality levels, and show the byte-vs-quality
// trade-off.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"image"
	"log"
	"os"
	"path/filepath"

	"repro/internal/mssim"
	"repro/pcr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "pcr-quickstart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dataset := filepath.Join(dir, "cars-pcr")

	// 1. Generate a small synthetic Stanford-Cars-like dataset and encode
	//    it into PCR records: baseline JPEG in, scan-grouped records out.
	n, err := pcr.Synthesize(dataset, "cars", 0.25, 1, pcr.WithImagesPerRecord(16))
	if err != nil {
		return err
	}
	fmt.Printf("encoded %d images into %s\n\n", n, dataset)

	// 2. Open it and stream it at increasing quality levels. Each level is
	//    one sequential prefix read per record; more quality = more bytes.
	ds, err := pcr.Open(dataset, pcr.WithPrefetchWorkers(4))
	if err != nil {
		return err
	}
	defer ds.Close()
	fmt.Printf("dataset: %d records, %d images, %d quality levels\n\n",
		ds.NumRecords(), ds.NumImages(), ds.Qualities())

	ctx := context.Background()
	firstAt := func(q int) (image.Image, error) {
		for s, err := range ds.Scan(ctx, q) {
			return s.Image, err
		}
		return nil, fmt.Errorf("empty dataset")
	}
	full, err := firstAt(pcr.Full)
	if err != nil {
		return err
	}
	fullLen, err := ds.SizeAtQuality(pcr.Full)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %14s %14s %10s\n", "quality", "bytes read", "of full", "MSSIM")
	for _, q := range []int{1, 2, 5, ds.Qualities()} {
		size, err := ds.SizeAtQuality(q)
		if err != nil {
			return err
		}
		img, err := firstAt(q)
		if err != nil {
			return err
		}
		// Quality of the first image vs its full-quality self.
		sim, err := mssim.MSSIM(img, full)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %14d %13.1f%% %10.4f\n", q, size, 100*float64(size)/float64(fullLen), sim)
	}
	fmt.Println("\nreading a prefix of each record file yields every image at that quality —")
	fmt.Println("no duplication, no random I/O, and no more bytes than plain JPEG records.")
	return nil
}
