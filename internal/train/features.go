// Package train is the reproduction's training harness. It materializes a
// synthetic dataset as an in-memory PCR dataset, trains the nn models for
// real on images decoded at a chosen scan group — fixed, or picked as
// training goes by a dynamic-compression Controller (§4.5, §A.6) — and
// charges virtual time for storage and compute through the loader/iosim
// pipeline, producing the time-to-accuracy curves, loading-rate bars, and
// gradient-similarity data of the paper's evaluation (§4, Figures 4–9 and
// 19–22).
package train

import (
	"image"

	"repro/internal/synth"
)

// FeatureEdge is the model input resolution: decoded images are resized to
// FeatureEdge×FeatureEdge luma (the paper resizes to 224×224; the stand-in
// models use a proportionally smaller input).
const FeatureEdge = 24

// FeatureLen is the model input width.
const FeatureLen = FeatureEdge * FeatureEdge

// Featurize converts a decoded image into the model's input vector:
// bilinear resize to FeatureEdge², BT.601 luma, scaled to [−1, 1].
func Featurize(img image.Image) []float64 {
	small := synth.ResizeBilinear(img, FeatureEdge, FeatureEdge)
	out := make([]float64, FeatureLen)
	i := 0
	for y := 0; y < FeatureEdge; y++ {
		for x := 0; x < FeatureEdge; x++ {
			o := small.PixOffset(x, y)
			r := float64(small.Pix[o+0])
			g := float64(small.Pix[o+1])
			b := float64(small.Pix[o+2])
			luma := 0.299*r + 0.587*g + 0.114*b
			out[i] = luma/127.5 - 1
			i++
		}
	}
	return out
}
