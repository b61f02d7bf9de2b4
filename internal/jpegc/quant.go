package jpegc

// Standard quantization tables from ITU-T T.81 Annex K, in natural order.
var (
	stdLumaQuant = [64]uint16{
		16, 11, 10, 16, 24, 40, 51, 61,
		12, 12, 14, 19, 26, 58, 60, 55,
		14, 13, 16, 24, 40, 57, 69, 56,
		14, 17, 22, 29, 51, 87, 80, 62,
		18, 22, 37, 56, 68, 109, 103, 77,
		24, 35, 55, 64, 81, 104, 113, 92,
		49, 64, 78, 87, 103, 121, 120, 101,
		72, 92, 95, 98, 112, 100, 103, 99,
	}
	stdChromaQuant = [64]uint16{
		17, 18, 24, 47, 99, 99, 99, 99,
		18, 21, 26, 66, 99, 99, 99, 99,
		24, 26, 56, 99, 99, 99, 99, 99,
		47, 66, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
		99, 99, 99, 99, 99, 99, 99, 99,
	}
)

// quantTables returns the luma and chroma quantization tables for a quality
// setting in [1, 100], scaled with the libjpeg convention (quality 50 is the
// Annex K baseline; higher quality shrinks divisors).
func quantTables(quality int) (luma, chroma [64]uint16) {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - quality*2
	}
	scaleTable := func(base *[64]uint16) (out [64]uint16) {
		for i, v := range base {
			q := (int(v)*scale + 50) / 100
			if q < 1 {
				q = 1
			}
			if q > 255 {
				q = 255
			}
			out[i] = uint16(q)
		}
		return out
	}
	return scaleTable(&stdLumaQuant), scaleTable(&stdChromaQuant)
}
