//go:build !amd64

package jpegc

// There is no kernel for this architecture: reconstruct runs its portable
// body.
var useAVX2 = false

func idctAVX2(blk *block, q *[64]int32, dst *byte, stride int) {
	panic("jpegc: idctAVX2 called on an architecture without it")
}
