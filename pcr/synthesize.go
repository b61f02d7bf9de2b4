package pcr

import (
	"fmt"

	"repro/internal/synth"
)

// Synthesize generates the named synthetic dataset profile ("imagenet",
// "celebahq", "ham10000", "cars"), scaled by scale, and writes its train
// split to dir in the configured Format. Images are encoded at the profile's
// JPEG quality unless WithJPEGQuality overrides it. It returns the number of
// images written.
func Synthesize(dir, profile string, scale float64, seed int64, opts ...Option) (int, error) {
	p, err := synth.ProfileByName(profile)
	if err != nil {
		return 0, err
	}
	ds, err := synth.Generate(p.Scaled(scale), seed)
	if err != nil {
		return 0, err
	}
	w, err := Create(dir, append([]Option{WithJPEGQuality(p.JPEGQuality)}, opts...)...)
	if err != nil {
		return 0, err
	}
	for _, s := range ds.Train {
		if err := w.Append(Sample{ID: int64(s.ID), Label: int64(s.Label), Image: s.Img}); err != nil {
			return w.Count(), fmt.Errorf("pcr: synthesize %s: %w", profile, err)
		}
	}
	if err := w.Close(); err != nil {
		return w.Count(), err
	}
	return w.Count(), nil
}
