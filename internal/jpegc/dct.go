package jpegc

import "math"

// cosTable[u][x] = cos((2x+1)uπ/16), precomputed for the 8-point DCT.
var cosTable [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
}

func dctScale(u int) float64 {
	if u == 0 {
		return math.Sqrt2 / 2 // 1/√2
	}
	return 1
}

// fdct computes the forward 8×8 DCT-II in place. Input samples should be
// level-shifted (centered on zero). The output follows the JPEG convention:
// out[v*8+u] = 1/4 C(u) C(v) ΣΣ in[y*8+x] cos((2x+1)uπ/16) cos((2y+1)vπ/16).
func fdct(b *[64]float64) {
	var tmp [64]float64
	// Rows: 1-D DCT along x.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += b[y*8+x] * cosTable[u][x]
			}
			tmp[y*8+u] = s * dctScale(u) / 2
		}
	}
	// Columns: 1-D DCT along y.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * cosTable[v][y]
			}
			b[v*8+u] = s * dctScale(v) / 2
		}
	}
}
