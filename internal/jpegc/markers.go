package jpegc

// JPEG marker codes (second byte after 0xFF).
const (
	mSOF0 = 0xC0 // baseline sequential DCT
	mSOF2 = 0xC2 // progressive DCT
	mDHT  = 0xC4 // define Huffman tables
	mRST0 = 0xD0 // restart interval markers D0–D7
	mSOI  = 0xD8 // start of image
	mEOI  = 0xD9 // end of image
	mSOS  = 0xDA // start of scan
	mDQT  = 0xDB // define quantization tables
	mDRI  = 0xDD // define restart interval
	mAPP0 = 0xE0 // JFIF
	mCOM  = 0xFE // comment
)

// ScanSpec describes one scan of a scan script: which components it codes
// and its spectral-selection / successive-approximation parameters.
type ScanSpec struct {
	// Comps lists component indices (0-based) coded by this scan. DC scans
	// may interleave several components; AC scans must name exactly one.
	Comps []int
	// Ss and Se delimit the coefficient band in zigzag order (0..63).
	Ss, Se int
	// Ah and Al are the successive-approximation bit positions: Ah is the
	// previous point-transform (0 on a first pass), Al the current one.
	Ah, Al int
}

// isDC reports whether the scan codes the DC band.
func (s ScanSpec) isDC() bool { return s.Ss == 0 }

// defaultScanScript returns the progressive scan script used by libjpeg's
// jpeg_simple_progression for the given component count: 10 scans for color
// images, 6 for grayscale. PCRs map these scans 1:1 onto scan groups. The
// script is shared by every caller and must not be modified.
func defaultScanScript(numComps int) []ScanSpec {
	if numComps == 1 {
		return grayScript
	}
	return colorScript
}

var (
	grayScript = []ScanSpec{
		{Comps: []int{0}, Ss: 0, Se: 0, Ah: 0, Al: 1},
		{Comps: []int{0}, Ss: 1, Se: 5, Ah: 0, Al: 2},
		{Comps: []int{0}, Ss: 6, Se: 63, Ah: 0, Al: 2},
		{Comps: []int{0}, Ss: 1, Se: 63, Ah: 2, Al: 1},
		{Comps: []int{0}, Ss: 0, Se: 0, Ah: 1, Al: 0},
		{Comps: []int{0}, Ss: 1, Se: 63, Ah: 1, Al: 0},
	}
	colorScript = []ScanSpec{
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 0, Al: 1}, // 1: DC, coarse
		{Comps: []int{0}, Ss: 1, Se: 5, Ah: 0, Al: 2},       // 2: Y low AC
		{Comps: []int{2}, Ss: 1, Se: 63, Ah: 0, Al: 1},      // 3: Cr all AC
		{Comps: []int{1}, Ss: 1, Se: 63, Ah: 0, Al: 1},      // 4: Cb all AC
		{Comps: []int{0}, Ss: 6, Se: 63, Ah: 0, Al: 2},      // 5: Y high AC
		{Comps: []int{0}, Ss: 1, Se: 63, Ah: 2, Al: 1},      // 6: Y AC refine
		{Comps: []int{0, 1, 2}, Ss: 0, Se: 0, Ah: 1, Al: 0}, // 7: DC refine
		{Comps: []int{2}, Ss: 1, Se: 63, Ah: 1, Al: 0},      // 8: Cr AC refine
		{Comps: []int{1}, Ss: 1, Se: 63, Ah: 1, Al: 0},      // 9: Cb AC refine
		{Comps: []int{0}, Ss: 1, Se: 63, Ah: 1, Al: 0},      // 10: Y AC refine
	}
)
