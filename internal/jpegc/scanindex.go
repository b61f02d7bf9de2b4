package jpegc

import "fmt"

// ScanInfo locates one scan inside a JPEG byte stream. A scan's byte range
// covers the DHT segment(s) immediately preceding its SOS (if any), the SOS
// header, and the entropy-coded data — i.e. everything that must be present
// for a decoder to process the scan.
type ScanInfo struct {
	// Offset is the byte offset where the scan's segment group begins.
	Offset int
	// Length is the number of bytes up to (not including) the next marker
	// that is not part of this scan.
	Length int
	// Spec carries the parsed scan parameters (component count resolved to
	// indices, Ss/Se/Ah/Al).
	Spec ScanSpec
}

// StreamIndex is the result of indexing a JPEG stream: the header byte range
// and every scan's byte range. It is the information the PCR encoder needs
// to rearrange a progressive image into scan groups.
type StreamIndex struct {
	// HeaderLen is the length of the prefix before the first scan (SOI,
	// APPn, DQT, SOF, ...).
	HeaderLen int
	// Scans lists the scans in stream order.
	Scans []ScanInfo
	// Progressive reports whether the stream uses SOF2.
	Progressive bool
	// Width, Height and NumComps are parsed from the SOF header.
	Width, Height, NumComps int
}

// IndexScans walks a JPEG stream's marker structure and reports the byte
// ranges of its header and scans. It performs no entropy decoding and copies
// nothing — the end of each scan's data is found by searching for the next
// marker in place — so it allocates only the index it returns, whatever the
// length of the stream; this is the "scan the binary representation for
// markers" step of the PCR encoder.
func IndexScans(data []byte) (*StreamIndex, error) {
	if len(data) < 2 || data[0] != 0xFF || data[1] != mSOI {
		return nil, fmt.Errorf("jpegc: missing SOI")
	}
	idx := &StreamIndex{}
	pos := 2
	groupStart := -1 // start of the pending DHT+SOS group
	compIDs := [3]byte{}

	for pos < len(data) {
		if data[pos] != 0xFF {
			return nil, fmt.Errorf("jpegc: expected marker at offset %d", pos)
		}
		markerPos := pos
		for pos+1 < len(data) && data[pos+1] == 0xFF {
			pos++
		}
		if pos+1 >= len(data) {
			return nil, ErrTruncated
		}
		marker := data[pos+1]
		pos += 2

		switch marker {
		case mEOI:
			return idx, nil
		case mDHT:
			if groupStart < 0 {
				groupStart = markerPos
			}
		case mSOS:
			if groupStart < 0 {
				groupStart = markerPos
			}
		}

		if marker == mEOI || (marker >= mRST0 && marker <= mRST0+7) {
			continue
		}
		if pos+2 > len(data) {
			return nil, ErrTruncated
		}
		n := int(data[pos])<<8 | int(data[pos+1])
		if n < 2 || pos+n > len(data) {
			return nil, ErrTruncated
		}
		payload := data[pos+2 : pos+n]
		pos += n

		switch marker {
		case mSOF0, mSOF2:
			idx.Progressive = marker == mSOF2
			if len(payload) < 6 {
				return nil, fmt.Errorf("jpegc: short SOF")
			}
			idx.Height = int(payload[1])<<8 | int(payload[2])
			idx.Width = int(payload[3])<<8 | int(payload[4])
			idx.NumComps = int(payload[5])
			if idx.NumComps < 1 || idx.NumComps > 3 || len(payload) < 6+3*idx.NumComps {
				return nil, fmt.Errorf("jpegc: bad SOF component list")
			}
			for c := 0; c < idx.NumComps; c++ {
				compIDs[c] = payload[6+3*c]
			}
		case mSOS:
			if idx.HeaderLen == 0 {
				idx.HeaderLen = groupStart
			}
			spec, err := parseSOSSpec(payload, compIDs[:idx.NumComps])
			if err != nil {
				return nil, err
			}
			// Entropy-coded data runs until the next marker.
			pos = scanEnd(data, pos)
			idx.Scans = append(idx.Scans, ScanInfo{
				Offset: groupStart,
				Length: pos - groupStart,
				Spec:   spec,
			})
			groupStart = -1
		}
	}
	return nil, ErrTruncated
}

func parseSOSSpec(p []byte, compIDs []byte) (ScanSpec, error) {
	var spec ScanSpec
	if len(p) < 4 {
		return spec, fmt.Errorf("jpegc: short SOS")
	}
	ns := int(p[0])
	if ns < 1 || ns > 3 || len(p) != 1+2*ns+3 {
		return spec, fmt.Errorf("jpegc: bad SOS header")
	}
	for i := 0; i < ns; i++ {
		id := p[1+2*i]
		found := -1
		for c, cid := range compIDs {
			if cid == id {
				found = c
			}
		}
		if found < 0 {
			return spec, fmt.Errorf("jpegc: scan references unknown component %d", id)
		}
		spec.Comps = append(spec.Comps, found)
	}
	spec.Ss = int(p[1+2*ns])
	spec.Se = int(p[2+2*ns])
	spec.Ah = int(p[3+2*ns] >> 4)
	spec.Al = int(p[3+2*ns] & 0x0F)
	return spec, nil
}

// Transcode losslessly converts a JPEG stream between baseline and
// progressive representations: it entropy-decodes to coefficients and
// re-encodes with the requested options, never touching the DCT domain.
// This is the role jpegtran plays in the paper's PCR encoder.
func Transcode(data []byte, opts *Options) ([]byte, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if err := s.decode(data); err != nil {
		return nil, err
	}
	if err := s.seal(); err != nil {
		return nil, err
	}
	return s.encode(opts)
}

// TruncateToScan returns a decodable stream containing the header, scans
// [0, n) of the indexed stream, and a terminating EOI marker. With n equal
// to the total scan count this reproduces the full image; smaller n yields
// a progressively coarser reconstruction. This mirrors how a PCR reader
// materializes an image from a scan-group prefix.
func TruncateToScan(data []byte, idx *StreamIndex, n int) ([]byte, error) {
	if n < 1 || n > len(idx.Scans) {
		return nil, fmt.Errorf("jpegc: scan count %d out of range [1, %d]", n, len(idx.Scans))
	}
	last := idx.Scans[n-1]
	end := last.Offset + last.Length
	out := make([]byte, 0, end+2)
	out = append(out, data[:end]...)
	out = append(out, 0xFF, mEOI)
	return out, nil
}
