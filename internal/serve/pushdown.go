package serve

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
)

// Sample-level predicate pushdown: GET /records/{name}?group=g&samples=<bitmap>
// serves only the byte ranges needed to materialize the selected samples at
// scan group g — the metadata section plus the selected samples' slices of
// every group ≤ g, coalesced and concatenated in ascending offset order.
//
// The selection travels as a compact bitmap rather than an offset list
// because both sides hold the same immutable index: the client computes the
// expected ranges (core.RecordInfo.SampleRanges) from the bitmap exactly as
// the server does, so the wire carries only which samples, never where
// their bytes live. Responses carry the pushdownHeader; a 200 without it did
// not come from this handler and the client refuses it (readSamplesOnce).
//
// Audit rules, mirroring resolveRange's: a samples= request must name a
// group, must not carry a Range header, and its bitmap must be well-formed
// base64url, no longer than the record's sample count needs, with no bits
// set past the last sample. Violations are the client's fault and get 400,
// never 500.

// pushdownHeader marks a response as a pushdown result (its value is the
// served range count).
const pushdownHeader = "X-Pcr-Pushdown"

// maxSampleBitmapChars caps the accepted ?samples= value length before
// decoding — a backstop against absurd query strings; any real bitmap for a
// record's samples is far smaller (one bit per sample).
const maxSampleBitmapChars = 1 << 16

// encodeSampleBitmap packs a selection mask LSB-first (bit j of byte j/8 is
// sample j) and encodes it as unpadded base64url. Trailing zero bytes are
// trimmed: a shorter-than-full bitmap means the remaining samples are
// unselected.
func encodeSampleBitmap(sel []bool) string {
	buf := make([]byte, (len(sel)+7)/8)
	for j, on := range sel {
		if on {
			buf[j/8] |= 1 << (j % 8)
		}
	}
	n := len(buf)
	for n > 0 && buf[n-1] == 0 {
		n--
	}
	return base64.RawURLEncoding.EncodeToString(buf[:n])
}

// decodeSampleBitmap reverses encodeSampleBitmap for a record of n samples.
// It rejects malformed base64, bitmaps longer than n samples need, and bits
// set at or past sample n. An empty string is a valid all-unselected
// bitmap.
func decodeSampleBitmap(s string, n int) ([]bool, error) {
	if len(s) > maxSampleBitmapChars {
		return nil, fmt.Errorf("serve: samples bitmap is %d characters, limit %d", len(s), maxSampleBitmapChars)
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("serve: samples bitmap is not base64url: %w", err)
	}
	if max := (n + 7) / 8; len(raw) > max {
		return nil, fmt.Errorf("serve: samples bitmap has %d bytes, a %d-sample record needs at most %d", len(raw), n, max)
	}
	sel := make([]bool, n)
	for j := range raw {
		b := raw[j]
		for k := 0; k < 8; k++ {
			if b&(1<<k) == 0 {
				continue
			}
			idx := j*8 + k
			if idx >= n {
				return nil, fmt.Errorf("serve: samples bitmap selects sample %d of a %d-sample record", idx, n)
			}
			sel[idx] = true
		}
	}
	return sel, nil
}

// serveSamples answers a pushdown request for record rec at scan group g,
// clamped; bitmap is the raw ?samples= value. Its own checks come before
// the conditional step, so a malformed request is a 400 even when it names
// a current ETag.
func (s *Server) serveSamples(w http.ResponseWriter, r *http.Request, rec, g int, bitmap string) {
	re := &s.index.Records[rec]
	if r.Header.Get("Range") != "" {
		// A byte range within a range-selected view has no defined object to
		// range over; refuse rather than guess.
		s.fail(w, http.StatusBadRequest, "serve: samples and Range cannot be combined")
		return
	}
	sel, err := decodeSampleBitmap(bitmap, re.Samples)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ranges, err := re.SampleRanges(g, sel)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "serve: %v", err)
		return
	}
	total := core.RangesTotal(ranges)
	if s.unmodified(w, r, s.etags[rec]) {
		return
	}
	s.writeAnswer(w, r, http.StatusOK, total,
		func() ([]byte, error) { return s.tiers.Gather(rec, g, sel, ranges) },
		func(h http.Header) {
			s.pushdownRequests.Add(1)
			s.pushdownBytesSaved.Add(re.Prefixes[g] - total)
			h.Set(pushdownHeader, strconv.Itoa(len(ranges)))
		})
}
