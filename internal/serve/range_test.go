package serve

import (
	"net/http"
	"strings"
	"testing"
	"unicode"
)

// TestResolveRangeTable audits resolveRange against RFC 9110 §14 edge
// cases, including the ones no real record can exercise over HTTP (empty
// objects, int64 overflow).
func TestResolveRangeTable(t *testing.T) {
	const (
		ok   = http.StatusOK
		part = http.StatusPartialContent
		uns  = http.StatusRequestedRangeNotSatisfiable
	)
	huge := "99999999999999999999999999" // > int64

	cases := []struct {
		name       string
		header     string
		size       int64
		wantStart  int64
		wantLength int64
		wantStatus int
	}{
		{"no header", "", 100, 0, 100, ok},
		{"plain range", "bytes=10-19", 100, 10, 10, part},
		{"open ended", "bytes=90-", 100, 90, 10, part},
		{"suffix", "bytes=-10", 100, 90, 10, part},
		{"suffix longer than object", "bytes=-500", 100, 0, 100, part},
		{"end clamped", "bytes=50-1000", 100, 50, 50, part},
		{"single byte", "bytes=0-0", 100, 0, 1, part},
		{"last byte", "bytes=99-99", 100, 99, 1, part},

		// Unsatisfiable forms (416).
		{"start at EOF", "bytes=100-", 100, 0, 0, uns},
		{"start past EOF", "bytes=101-200", 100, 0, 0, uns},
		{"empty suffix", "bytes=-0", 100, 0, 0, uns},
		{"overflowing start", "bytes=" + huge + "-", 100, 0, 0, uns},

		// Overflow in positions that denote "the rest of the object"
		// clamps instead of invalidating the header (§14.1.1).
		{"overflowing end clamps", "bytes=10-" + huge, 100, 10, 90, part},
		{"overflowing suffix clamps", "bytes=-" + huge, 100, 0, 100, part},

		// Empty representation: no byte range is satisfiable, and a 206
		// could not carry a well-formed Content-Range ("bytes 0--1/0").
		{"empty object plain", "bytes=0-", 0, 0, 0, uns},
		{"empty object suffix", "bytes=-5", 0, 0, 0, uns},
		{"empty object suffix zero", "bytes=-0", 0, 0, 0, uns},
		{"empty object no header", "", 0, 0, 0, ok},
		{"empty object invalid header", "bytes=x", 0, 0, 0, ok},

		// Malformed or unsupported headers are ignored (200, whole object).
		{"inverted", "bytes=9-3", 100, 0, 100, ok},
		{"no spec", "bytes=", 100, 0, 100, ok},
		{"no dash", "bytes=5", 100, 0, 100, ok},
		{"negative start", "bytes=--5-", 100, 0, 100, ok},
		{"non-numeric", "bytes=a-b", 100, 0, 100, ok},
		{"wrong unit", "items=0-5", 100, 0, 100, ok},
		{"unit space", "bytes = 0-5", 100, 0, 100, ok},
		{"multipart", "bytes=0-5,10-15", 100, 0, 100, ok},
		{"multipart trailing comma", "bytes=0-5,", 100, 0, 100, ok},
		{"signed start", "bytes=+3-7", 100, 0, 100, ok},
		{"signed end", "bytes=3-+7", 100, 0, 100, ok},
		{"signed suffix", "bytes=-+5", 100, 0, 100, ok},
		{"signed open start", "bytes=+0-", 100, 0, 100, ok},

		// OWS around bounds is invalid grammar but tolerated leniently.
		{"spaces around bounds", "bytes= 10 - 19 ", 100, 10, 10, part},
		{"spaces around suffix", "bytes= -10", 100, 90, 10, part},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start, length, status := resolveRange(tc.header, tc.size)
			if status != tc.wantStatus {
				t.Fatalf("resolveRange(%q, %d) status = %d, want %d", tc.header, tc.size, status, tc.wantStatus)
			}
			if status == http.StatusRequestedRangeNotSatisfiable {
				return // window is meaningless for 416
			}
			if start != tc.wantStart || length != tc.wantLength {
				t.Fatalf("resolveRange(%q, %d) = [%d,+%d), want [%d,+%d)",
					tc.header, tc.size, start, length, tc.wantStart, tc.wantLength)
			}
		})
	}
}

// FuzzResolveRange holds resolveRange to what a caller relies on, for any
// header against any object size: it never panics; a 206 window is
// non-empty and inside the object; a 200 is the whole object; and a header
// whose bounds hold anything but digits and whitespace is never a 206. The
// seeds under testdata/fuzz are the table's forms, signs and overflows
// included.
func FuzzResolveRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string, size int64) {
		if size < 0 {
			return // no object has a negative size
		}
		start, length, status := resolveRange(header, size)
		switch status {
		case http.StatusPartialContent:
			if start < 0 || length < 1 || length > size-start {
				t.Fatalf("resolveRange(%q, %d) = 206 [%d,+%d): outside the object", header, size, start, length)
			}
			spec, ok := strings.CutPrefix(header, "bytes=")
			notBound := func(r rune) bool { return r != '-' && (r < '0' || r > '9') && !unicode.IsSpace(r) }
			if !ok || strings.Count(spec, "-") != 1 || strings.ContainsFunc(spec, notBound) {
				t.Fatalf("resolveRange(%q, %d) = 206 for bounds that are not digits", header, size)
			}
		case http.StatusOK:
			if start != 0 || length != size {
				t.Fatalf("resolveRange(%q, %d) = 200 [%d,+%d), want the whole object", header, size, start, length)
			}
		case http.StatusRequestedRangeNotSatisfiable:
		default:
			t.Fatalf("resolveRange(%q, %d): status %d", header, size, status)
		}
	})
}
