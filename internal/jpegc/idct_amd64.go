package jpegc

// useAVX2 selects idctAVX2 over the portable transform in reconstruct. It is
// read from the processor once; the tests flip it to run both bodies.
var useAVX2 = cpuHasAVX2()

// idctAVX2 dequantizes blk (zigzag order) by q (column-major), inverse
// transforms it and writes its 8×8 samples, level shifted and clamped, at dst
// and the seven rows stride apart below it: the samples reconstruct's
// portable body computes from the same block. It reads all 64 coefficients,
// so those past the block's last must be the zeros they are said to be.
//
//go:noescape
func idctAVX2(blk *block, q *[64]int32, dst *byte, stride int)

func cpuHasAVX2() bool
