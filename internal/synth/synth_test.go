package synth

import (
	"image"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/mssim"
)

func tinyProfile() Profile {
	p := Cars
	p.NumImages = 48
	p.ImageSize = 48
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	p := tinyProfile()
	a, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Train) != len(b.Train) || len(a.Test) != len(b.Test) {
		t.Fatal("split sizes differ across identical seeds")
	}
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label {
			t.Fatalf("labels differ at %d", i)
		}
		ai, bi := a.Train[i].Img, b.Train[i].Img
		for j := range ai.Pix {
			if ai.Pix[j] != bi.Pix[j] {
				t.Fatalf("pixels differ in image %d", i)
			}
		}
	}
}

func TestGenerateSplitAndBalance(t *testing.T) {
	p := tinyProfile()
	ds, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Train) + len(ds.Test); got != p.NumImages {
		t.Errorf("total images %d, want %d", got, p.NumImages)
	}
	if len(ds.Test) == 0 || len(ds.Train) < 3*len(ds.Test) {
		t.Errorf("split %d/%d not ~80/20", len(ds.Train), len(ds.Test))
	}
	counts := map[int]int{}
	for _, s := range ds.Train {
		if s.Label < 0 || s.Label >= p.FineClasses {
			t.Fatalf("label %d out of range", s.Label)
		}
		counts[s.Label]++
	}
	if len(counts) != p.FineClasses {
		t.Errorf("train split covers %d classes, want %d", len(counts), p.FineClasses)
	}
}

func TestGenerateRejectsBadProfiles(t *testing.T) {
	p := tinyProfile()
	p.CoarseClasses = 5 // does not divide 24
	if _, err := Generate(p, 1); err == nil {
		t.Error("non-divisible class structure accepted")
	}
	p = tinyProfile()
	p.ImageSize = 4
	if _, err := Generate(p, 1); err == nil {
		t.Error("tiny image size accepted")
	}
}

func TestTasksRemapLabels(t *testing.T) {
	p := tinyProfile() // 24 fine, 6 coarse
	mc := Multiclass(p)
	if mc.NumClasses != 24 || mc.Map(13) != 13 {
		t.Error("multiclass remap broken")
	}
	co := CoarseOnly(p)
	if co.NumClasses != 6 {
		t.Errorf("coarse classes = %d", co.NumClasses)
	}
	if co.Map(0) != 0 || co.Map(3) != 0 || co.Map(4) != 1 || co.Map(23) != 5 {
		t.Error("coarse remap broken")
	}
	bin, err := Binary(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Map(8) != 1 || bin.Map(9) != 1 || bin.Map(12) != 0 || bin.Map(0) != 0 {
		t.Error("binary remap broken")
	}
	if _, err := Binary(p, 99); err == nil {
		t.Error("out-of-range binary target accepted")
	}
}

// TestFrequencyStructure verifies the central design property: truncating
// the progressive stream to early scans hurts fine-class separability much
// more than coarse-class separability. We check the proxy: within one
// coarse group, two fine classes become nearly indistinguishable at scan 1
// (high MSSIM between their class means) while two coarse groups stay apart.
func TestFrequencyStructure(t *testing.T) {
	p := Cars
	p.NumImages = 24
	p.ImageSize = 64
	p.NoiseAmp = 0 // isolate the class signal
	p.SizeJitter = 0
	ds, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pick one image from fine classes 0, 1 (same coarse group) and 4
	// (different group).
	find := func(label int) image.Image {
		for _, s := range ds.Train {
			if s.Label == label {
				return s.Img
			}
		}
		for _, s := range ds.Test {
			if s.Label == label {
				return s.Img
			}
		}
		t.Fatalf("no sample with label %d", label)
		return nil
	}
	atScan := func(img image.Image, n int) image.Image {
		data, err := jpegc.Encode(img, &jpegc.Options{Quality: p.JPEGQuality, Progressive: true})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := jpegc.IndexScans(data)
		if err != nil {
			t.Fatal(err)
		}
		trunc, err := jpegc.TruncateToScan(data, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		out, err := jpegc.Decode(trunc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a0 := find(0)
	a1 := find(1) // same coarse group as 0
	b0 := find(4) // different coarse group

	simFineLow, err := mssim.SSIM(atScan(a0, 1), atScan(a1, 1))
	if err != nil {
		t.Fatal(err)
	}
	simFineHigh, err := mssim.SSIM(atScan(a0, 10), atScan(a1, 10))
	if err != nil {
		t.Fatal(err)
	}
	simCoarseLow, err := mssim.SSIM(atScan(a0, 1), atScan(b0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if simFineLow <= simFineHigh {
		t.Errorf("fine classes should converge at scan 1: sim@1=%.3f sim@10=%.3f", simFineLow, simFineHigh)
	}
	if simCoarseLow >= simFineLow {
		t.Errorf("coarse classes should stay apart at scan 1: coarse=%.3f fine=%.3f", simCoarseLow, simFineLow)
	}
}

func TestResizeBilinear(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 4, 4))
	for i := range src.Pix {
		src.Pix[i] = 200
	}
	dst := ResizeBilinear(src, 8, 8)
	if dst.Bounds().Dx() != 8 || dst.Bounds().Dy() != 8 {
		t.Fatalf("bounds = %v", dst.Bounds())
	}
	// A constant image must stay constant under resize.
	for i := 0; i < len(dst.Pix); i += 4 {
		if d := int(dst.Pix[i]) - 200; d < -1 || d > 1 {
			t.Fatalf("pixel %d = %d, want ~200", i, dst.Pix[i])
		}
	}
}
