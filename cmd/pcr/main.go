// Command pcr creates, inspects, and decodes image datasets through the
// public pcr package (see package repro/pcr), in any of its storage formats:
// Progressive Compressed Records, TFRecord framing, or file-per-image.
//
// Usage:
//
//	pcr synth   -dataset cars -out DIR [-format pcr] [-scale 0.5] [-seed 42] [-per-record 32] [-scan-groups N] [-baseline DIR]
//	pcr encode  -from DIR -out DIR [-format pcr] [-per-record 32] [-scan-groups N]
//	pcr inspect -dataset DIR [-format pcr] [-filter "label IN (3, 7)"]
//	pcr decode  -dataset DIR -record N -quality Q -out DIR
//
// `synth` generates one of the paper's synthetic dataset profiles and
// encodes it in the chosen format (optionally also writing the File-per-Image
// baseline layout). `encode` converts an existing File-per-Image layout of
// JPEGs into a record format — the jpegtran-and-rearrange role of the
// paper's encoder. `inspect` prints the record index and per-quality sizes.
// `decode` materializes a record's images at a quality level as PNG files.
package main

import (
	"context"
	"flag"
	"fmt"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/pcr"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Stdout, os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pcr <synth|encode|inspect|decode> [flags]
  synth   -dataset NAME -out DIR [-format pcr|tfrecord|fileperimage] [-scale F] [-seed N] [-per-record N] [-scan-groups N] [-baseline DIR]
  encode  -from DIR -out DIR [-format pcr|tfrecord|fileperimage] [-per-record N] [-scan-groups N]
  inspect -dataset DIR [-format pcr|tfrecord|fileperimage] [-filter EXPR]
  decode  -dataset DIR -record N -quality Q -out DIR`)
}

// formatFlag registers -format and resolves it after parsing.
func formatFlag(fs *flag.FlagSet) func() (pcr.Format, error) {
	name := fs.String("format", "pcr", "storage format: pcr, tfrecord, fileperimage")
	return func() (pcr.Format, error) { return pcr.FormatByName(*name) }
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	name := fs.String("dataset", "cars", "profile: imagenet, celebahq, ham10000, cars")
	out := fs.String("out", "", "output dataset directory")
	format := formatFlag(fs)
	scale := fs.Float64("scale", 1.0, "dataset size multiplier")
	seed := fs.Int64("seed", 42, "generation seed")
	perRecord := fs.Int("per-record", 32, "images per record")
	scanGroups := fs.Int("scan-groups", 0, "coalesce progressive scans into N groups (0 = one per scan)")
	baseline := fs.String("baseline", "", "also write a File-per-Image baseline layout here")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("synth: -out is required")
	}
	f, err := format()
	if err != nil {
		return err
	}
	opts := []pcr.Option{
		pcr.WithFormat(f),
		pcr.WithImagesPerRecord(*perRecord),
		pcr.WithScanGroups(*scanGroups),
	}
	n, err := pcr.Synthesize(*out, *name, *scale, *seed, opts...)
	if err != nil {
		return err
	}
	if *baseline != "" {
		// Copy the just-written dataset instead of synthesizing and encoding
		// the images a second time (encoding dominates synth wall time).
		if err := copyToFilePerImage(*out, f, *baseline); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d train images of %s to %s (%s format)\n", n, *name, *out, f.Name())
	return nil
}

// copyToFilePerImage streams the dataset at src (in srcFormat) into a
// File-per-Image baseline layout at dst.
func copyToFilePerImage(src string, srcFormat pcr.Format, dst string) error {
	ds, err := pcr.Open(src, pcr.WithFormat(srcFormat))
	if err != nil {
		return err
	}
	defer ds.Close()
	w, err := pcr.Create(dst, pcr.WithFormat(pcr.FilePerImage))
	if err != nil {
		return err
	}
	for s, err := range ds.ScanEncoded(context.Background(), pcr.Full) {
		if err != nil {
			return err
		}
		if err := w.Append(s); err != nil {
			return err
		}
	}
	return w.Close()
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	from := fs.String("from", "", "File-per-Image source directory")
	out := fs.String("out", "", "output dataset directory")
	format := formatFlag(fs)
	perRecord := fs.Int("per-record", 32, "images per record")
	scanGroups := fs.Int("scan-groups", 0, "coalesce progressive scans into N groups (0 = one per scan)")
	fs.Parse(args)
	if *from == "" || *out == "" {
		return fmt.Errorf("encode: -from and -out are required")
	}
	f, err := format()
	if err != nil {
		return err
	}
	src, err := pcr.Open(*from, pcr.WithFormat(pcr.FilePerImage))
	if err != nil {
		return err
	}
	defer src.Close()
	if src.NumImages() == 0 {
		return fmt.Errorf("encode: no images under %s", *from)
	}
	w, err := pcr.Create(*out, pcr.WithFormat(f), pcr.WithImagesPerRecord(*perRecord), pcr.WithScanGroups(*scanGroups))
	if err != nil {
		return err
	}
	for s, err := range src.ScanEncoded(context.Background(), pcr.Full) {
		if err != nil {
			return err
		}
		if err := w.Append(s); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("encoded %d images into %s dataset %s\n", w.Count(), f.Name(), *out)
	return nil
}

func cmdInspect(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := fs.String("dataset", "", "dataset directory or pcrserved URL(s) (http://host:port, comma-separated fleet seeds allowed)")
	format := formatFlag(fs)
	filter := fs.String("filter", "", `plan a predicate pushdown, e.g. "label IN (3, 7) AND id >= 100" (pcr format only)`)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("inspect: -dataset is required")
	}
	f, err := format()
	if err != nil {
		return err
	}
	// A served dataset is inspected from its index alone: every number
	// below is priced without reading a record byte.
	open := pcr.Open
	if strings.HasPrefix(*dir, "http://") || strings.HasPrefix(*dir, "https://") {
		open = pcr.OpenRemote
	}
	ds, err := open(*dir, pcr.WithFormat(f))
	if err != nil {
		return err
	}
	defer ds.Close()
	fmt.Fprintf(w, "dataset: %s (%s format)\n  records: %d\n  images:  %d\n  quality levels: %d\n",
		*dir, ds.Format().Name(), ds.NumRecords(), ds.NumImages(), ds.Qualities())
	fullSize, err := ds.SizeAtQuality(pcr.Full)
	if err != nil {
		return err
	}
	for q := 1; q <= ds.Qualities(); q++ {
		size, err := ds.SizeAtQuality(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  quality %2d: %12d bytes (%.1f%% of full)\n", q, size, 100*float64(size)/float64(fullSize))
	}
	if *filter != "" {
		if ds.Format() != pcr.PCR {
			return fmt.Errorf("inspect: -filter requires the pcr format")
		}
		pred, err := pcr.ParseFilter(*filter)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "filter: %s\n", pred)
		for q := 1; q <= ds.Qualities(); q++ {
			plan, err := ds.PlanFilter(pred, q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  quality %2d: %d/%d samples, %d/%d records skipped whole, %d of %d bytes (%.1f%%)\n",
				q, plan.Selected, plan.Total, plan.RecordsSkipped, plan.Records,
				plan.Bytes, plan.FullBytes, 100*float64(plan.Bytes)/float64(plan.FullBytes))
		}
	}
	if ds.Format() != pcr.PCR {
		return nil
	}
	fmt.Fprintf(w, "%8s %8s %12s  %s\n", "record", "images", "full bytes", "prefix bytes by quality")
	for i := 0; i < ds.NumRecords(); i++ {
		n, err := ds.RecordImages(i)
		if err != nil {
			return err
		}
		full, err := ds.RecordPrefixLen(i, pcr.Full)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %8d %12d  ", i, n, full)
		for q := 1; q <= ds.Qualities(); q++ {
			p, err := ds.RecordPrefixLen(i, q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d:%d ", q, p)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	dir := fs.String("dataset", "", "PCR dataset directory")
	record := fs.Int("record", 0, "record index")
	quality := fs.Int("quality", 1, "quality level (scan group) to read")
	out := fs.String("out", "", "output directory for PNG files")
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return fmt.Errorf("decode: -dataset and -out are required")
	}
	ds, err := pcr.Open(*dir)
	if err != nil {
		return err
	}
	defer ds.Close()
	samples, err := ds.ReadRecord(context.Background(), *record, *quality)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	bytesRead, err := ds.RecordPrefixLen(*record, *quality)
	if err != nil {
		return err
	}
	for _, s := range samples {
		path := filepath.Join(*out, fmt.Sprintf("img-%06d-label%d-q%d.png", s.ID, s.Label, *quality))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := png.Encode(f, s.Image); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("decoded %d images from record %d at quality %d (%d bytes read) into %s\n",
		len(samples), *record, *quality, bytesRead, *out)
	return nil
}
