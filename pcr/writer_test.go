package pcr_test

import (
	"bytes"
	"context"
	"errors"
	"image"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/synth"
	"repro/pcr"
)

func carImages(t *testing.T, n int) []image.Image {
	t.Helper()
	p := synth.Cars
	p.NumImages = 2 * n
	p.ImageSize = 40
	ds, err := synth.Generate(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	var imgs []image.Image
	for _, s := range ds.Train[:n] {
		imgs = append(imgs, s.Img)
	}
	return imgs
}

// dirFiles reads every regular file under dir, by relative path.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestAppendImageStoresWhatBaselineWould: Append encodes an image straight
// to the progressive form a record stores. That is the stream its baseline
// encoding would be transcoded to, so the dataset is, file for file, the one
// written from pre-encoded baseline JPEGs.
func TestAppendImageStoresWhatBaselineWould(t *testing.T) {
	imgs := carImages(t, 7)
	write := func(sample func(i int, img image.Image) pcr.Sample) map[string][]byte {
		dir := t.TempDir()
		w, err := pcr.Create(dir, pcr.WithImagesPerRecord(3), pcr.WithJPEGQuality(85))
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range imgs {
			if err := w.Append(sample(i, img)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dirFiles(t, dir)
	}
	fromImages := write(func(i int, img image.Image) pcr.Sample {
		return pcr.Sample{ID: int64(i), Label: int64(i % 3), Image: img}
	})
	fromBaseline := write(func(i int, img image.Image) pcr.Sample {
		data, err := jpegc.Encode(img, &jpegc.Options{Quality: 85, Subsample420: true})
		if err != nil {
			t.Fatal(err)
		}
		return pcr.Sample{ID: int64(i), Label: int64(i % 3), JPEG: data}
	})
	if len(fromImages) != len(fromBaseline) || len(fromImages) < 4 {
		t.Fatalf("%d files from images, %d from baseline JPEGs", len(fromImages), len(fromBaseline))
	}
	for name, want := range fromBaseline {
		if got, ok := fromImages[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s differs between the two datasets (%d vs %d bytes, present %v)", name, len(got), len(want), ok)
		}
	}
}

// TestAppendKeepsBaselineForOtherFormats: only PCR stores progressive
// streams; a TFRecord dataset written from images holds baseline JPEG, as
// it always has.
func TestAppendKeepsBaselineForOtherFormats(t *testing.T) {
	dir := t.TempDir()
	w, err := pcr.Create(dir, pcr.WithFormat(pcr.TFRecord))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(pcr.Sample{ID: 1, Image: carImages(t, 1)[0]}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err := pcr.Open(dir, pcr.WithFormat(pcr.TFRecord))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for s, err := range ds.ScanEncoded(context.Background(), pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
		idx, err := jpegc.IndexScans(s.JPEG)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Progressive {
			t.Error("a TFRecord dataset stored a progressive stream")
		}
	}
}

// TestWriterRefusesTruncatedEntropy: a JPEG whose scan data was cut short
// under intact markers is an error at the flush that meets it, and leaves no
// record behind.
func TestWriterRefusesTruncatedEntropy(t *testing.T) {
	data, err := jpegc.Encode(carImages(t, 1)[0], &jpegc.Options{Quality: 90, Subsample420: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := jpegc.IndexScans(data)
	if err != nil {
		t.Fatal(err)
	}
	sc := idx.Scans[0]
	cut := sc.Offset + sc.Length - sc.Length/2
	if data[cut-1] == 0xFF {
		cut--
	}
	bad := append(append([]byte(nil), data[:cut]...), 0xFF, 0xD9)

	dir := t.TempDir()
	w, err := pcr.Create(dir, pcr.WithImagesPerRecord(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(pcr.Sample{ID: 0, JPEG: data}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(pcr.Sample{ID: 1, JPEG: bad}); !errors.Is(err, jpegc.ErrTruncated) {
		t.Fatalf("err = %v, want jpegc.ErrTruncated", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.pcr")); len(files) != 0 {
		t.Errorf("the refused record left %v", files)
	}
}
