package core_test

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"log"

	"repro/internal/core"
	"repro/internal/jpegc"
)

// Example builds a PCR record from two baseline JPEGs and reads it back at
// increasing scan groups, demonstrating the prefix property: every quality
// level is a prefix of the same byte stream.
func Example() {
	// Two small synthetic images, baseline-encoded.
	var samples []core.Sample
	for id := 0; id < 2; id++ {
		img := image.NewRGBA(image.Rect(0, 0, 32, 32))
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				img.SetRGBA(x, y, color.RGBA{
					R: uint8(x*8 + id*40), G: uint8(y * 8), B: 128, A: 255,
				})
			}
		}
		jpg, err := jpegc.Encode(img, &jpegc.Options{Quality: 80, Subsample420: true})
		if err != nil {
			log.Fatal(err)
		}
		samples = append(samples, core.Sample{ID: int64(id), Label: int64(id % 2), JPEG: jpg})
	}

	// Write the record: scans are rearranged into scan groups.
	var buf bytes.Buffer
	meta, err := core.WriteRecord(&buf, samples)
	if err != nil {
		log.Fatal(err)
	}
	record := buf.Bytes()
	fmt.Printf("scan groups: %d\n", meta.NumGroups)

	// A prefix read materializes every image at that quality.
	increasing := true
	prev := int64(0)
	for g := 1; g <= meta.NumGroups; g++ {
		n, err := meta.PrefixLen(g)
		if err != nil {
			log.Fatal(err)
		}
		if n <= prev {
			increasing = false
		}
		prev = n
		for i := range meta.Samples {
			stream, err := meta.SampleJPEG(record[:n], i, g)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := jpegc.Decode(stream); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("prefix lengths strictly increasing: %v\n", increasing)
	fmt.Printf("full prefix equals record size: %v\n", prev == int64(len(record)))

	// Output:
	// scan groups: 10
	// prefix lengths strictly increasing: true
	// full prefix equals record size: true
}
