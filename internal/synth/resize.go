package synth

import "image"

// ResizeBilinear scales an image to w×h with bilinear interpolation. The
// training pipeline uses it to bring variable-size dataset images to the
// model's fixed input resolution, mirroring the paper's resize augmentation.
func ResizeBilinear(src image.Image, w, h int) *image.RGBA {
	sb := src.Bounds()
	sw, sh := sb.Dx(), sb.Dy()
	dst := image.NewRGBA(image.Rect(0, 0, w, h))
	if sw == 0 || sh == 0 || w <= 0 || h <= 0 {
		return dst
	}
	for y := 0; y < h; y++ {
		fy := (float64(y) + 0.5) * float64(sh) / float64(h)
		sy0 := int(fy - 0.5)
		dy := fy - 0.5 - float64(sy0)
		sy1 := sy0 + 1
		if sy0 < 0 {
			sy0, dy = 0, 0
		}
		if sy1 >= sh {
			sy1 = sh - 1
		}
		for x := 0; x < w; x++ {
			fx := (float64(x) + 0.5) * float64(sw) / float64(w)
			sx0 := int(fx - 0.5)
			dx := fx - 0.5 - float64(sx0)
			sx1 := sx0 + 1
			if sx0 < 0 {
				sx0, dx = 0, 0
			}
			if sx1 >= sw {
				sx1 = sw - 1
			}
			blend := func(c00, c10, c01, c11 uint32) uint8 {
				top := float64(c00)*(1-dx) + float64(c10)*dx
				bot := float64(c01)*(1-dx) + float64(c11)*dx
				return uint8((top*(1-dy) + bot*dy) / 257)
			}
			r00, g00, b00, _ := src.At(sb.Min.X+sx0, sb.Min.Y+sy0).RGBA()
			r10, g10, b10, _ := src.At(sb.Min.X+sx1, sb.Min.Y+sy0).RGBA()
			r01, g01, b01, _ := src.At(sb.Min.X+sx0, sb.Min.Y+sy1).RGBA()
			r11, g11, b11, _ := src.At(sb.Min.X+sx1, sb.Min.Y+sy1).RGBA()
			i := dst.PixOffset(x, y)
			dst.Pix[i+0] = blend(r00, r10, r01, r11)
			dst.Pix[i+1] = blend(g00, g10, g01, g11)
			dst.Pix[i+2] = blend(b00, b10, b01, b11)
			dst.Pix[i+3] = 255
		}
	}
	return dst
}
