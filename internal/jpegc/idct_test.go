package jpegc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// haveAVX2 is what the processor said, before any test flips useAVX2.
var haveAVX2 = useAVX2

// idctPaths are the two bodies of reconstruct, by the value of useAVX2 that
// selects each.
var idctPaths = []struct {
	name   string
	kernel bool
}{{"portable", false}, {"avx2", true}}

// eachIDCTPath runs f once per body of reconstruct, as subtests "portable"
// and "avx2", the second only where the processor has the kernel.
func eachIDCTPath(t *testing.T, f func(t *testing.T)) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	for _, p := range idctPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.kernel && !haveAVX2 {
				t.Skip("no AVX2 on this processor")
			}
			useAVX2 = p.kernel
			f(t)
		})
	}
}

// reconstructBothWays runs the block through each body of reconstruct, into
// buffers that start out alike and are longer than the block needs, and
// fails the test unless they end alike: the same 64 samples and not a byte
// written beside them.
func reconstructBothWays(t *testing.T, blk *block, last int, quant *[64]uint16, stride int) {
	t.Helper()
	defer func(was bool) { useAVX2 = was }(useAVX2)
	var out [2][]byte
	for i := range out {
		out[i] = bytes.Repeat([]byte{0xA5}, 7*stride+8+16)
		useAVX2 = i == 1
		q := multipliers(quant)
		reconstruct(blk, last, &q, out[i][8:], stride)
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("last %d, stride %d\nblock %v\nquantizers %v\nportable %v\nkernel   %v", last, stride, blk, quant, out[0], out[1])
	}
}

// TestReconstructKernelMatchesPortable holds idctAVX2 to the portable
// transform byte for byte on random blocks: of every magnitude up to the
// int32 extremes, where the 32-bit arithmetic wraps at each step; dense and
// sparse; with rows that hold no AC term beside rows that do, where the
// portable code takes its dc<<3 shortcut and the kernel must too; cut at
// every last index; at random strides.
func TestReconstructKernelMatchesPortable(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this processor")
	}
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		var blk block
		var q [64]uint16
		bits := 1 + rng.Intn(32) // coefficients of up to this many bits
		qmax := []int{1, 16, 255, 65535}[rng.Intn(4)]
		for k := range q {
			q[k] = uint16(1 + rng.Intn(qmax))
		}
		last := 1 + rng.Intn(63)
		keep := []int{1, 2, 8}[rng.Intn(3)] // one coefficient in keep is non-zero
		for k := 0; k <= last; k++ {
			if k == 0 || k == last || rng.Intn(keep) == 0 {
				blk[k] = int32(rng.Uint32()) >> (32 - bits)
			}
		}
		switch rng.Intn(4) {
		case 0: // every row but one without an AC term
			row := rng.Intn(8)
			for k, nat := range zigzag {
				if nat%8 != 0 && int(nat/8) != row {
					blk[k] = 0
				}
			}
		case 1: // one row without
			row := rng.Intn(8)
			for k, nat := range zigzag {
				if nat%8 != 0 && int(nat/8) == row {
					blk[k] = 0
				}
			}
		}
		reconstructBothWays(t, &blk, last, &q, 8+rng.Intn(57))
	}
}

// FuzzReconstruct is the same property with the fuzzer choosing the block:
// 64 little-endian int32 coefficients in zigzag order, 64 little-endian
// 16-bit quantizers in natural order, the last index and the stride.
func FuzzReconstruct(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2 on this processor")
	}
	// The int32 extremes, rows without an AC term that wrap, last = 1 and
	// last = 63 are seeds under testdata/fuzz/FuzzReconstruct; this one is
	// the format's own extremes under the largest 8-bit quantizers.
	coeffs := make([]byte, 4*5)
	for k, v := range []int32{-1024, -1023, 0, 0, 1023} {
		binary.LittleEndian.PutUint32(coeffs[4*k:], uint32(v))
	}
	f.Add(coeffs, bytes.Repeat([]byte{255, 0}, 64), uint8(4), uint8(8))
	f.Fuzz(func(t *testing.T, coeffs, quant []byte, last, stride uint8) {
		var blk block
		var q [64]uint16
		last &= 63
		for k := 0; k <= int(last) && 4*k+4 <= len(coeffs); k++ {
			blk[k] = int32(binary.LittleEndian.Uint32(coeffs[4*k:]))
		}
		for k := range q {
			if 2*k+2 <= len(quant) {
				q[k] = binary.LittleEndian.Uint16(quant[2*k:])
			}
		}
		reconstructBothWays(t, &blk, int(last), &q, 8+int(stride))
	})
}
