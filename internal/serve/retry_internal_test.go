package serve

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryDelayJitterBounds: the backoff before attempt i is the
// exponential base delay plus up to one base-delay unit of jitter —
// d in [base<<i, 2*(base<<i)) — never less (no thundering retry storms
// faster than the schedule) and never doubling past the next tier.
func TestRetryDelayJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 4; attempt++ {
		lo := retryBaseDelay << attempt
		hi := 2 * lo
		var min, max time.Duration = hi, 0
		for i := 0; i < 500; i++ {
			d := retryDelay(attempt)
			if d < lo || d >= hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, lo, hi)
			}
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		// 500 draws across a base-delay-wide window: seeing no spread at
		// all means the jitter term is gone.
		if min == max {
			t.Fatalf("attempt %d: 500 draws all returned %v — no jitter", attempt, min)
		}
	}
}

// endlessBody is a response body that never ends: each Read fills its
// buffer with a counting byte pattern and counts what it handed out. Past
// endlessStall bytes it stalls until closed instead, so a reader that does
// not stop on its own waits there rather than filling memory.
type endlessBody struct {
	taken  int64
	closed chan struct{}
}

const endlessStall = 1 << 20

func (b *endlessBody) Read(p []byte) (int, error) {
	if b.taken >= endlessStall {
		<-b.closed
		return 0, errors.New("body closed")
	}
	for i := range p {
		p[i] = byte(b.taken + int64(i))
	}
	b.taken += int64(len(p))
	return len(p), nil
}

func (b *endlessBody) Close() error {
	select {
	case <-b.closed:
	default:
		close(b.closed)
	}
	return nil
}

// ignoresRange answers every request 200 with an endless body, as a server
// that ignores the Range header and streams without end would.
type ignoresRange struct{ body *endlessBody }

func (t ignoresRange) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{},
		Body: t.body, Request: req}, nil
}

// TestReadRangeBoundsIgnoredRange: against a server that ignores Range and
// sends a body that never ends, a ranged read is refused promptly — an
// error, not retryable, since the whole object is no answer to a window —
// and takes not one byte from the body.
func TestReadRangeBoundsIgnoredRange(t *testing.T) {
	const offset, length = 1000, 300
	body := &endlessBody{closed: make(chan struct{})}
	t.Cleanup(func() { body.Close() })
	m, err := newMember("http://pcr.invalid", &http.Client{Transport: ignoresRange{body}})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		buf       []byte
		retryable bool
		err       error
	}
	done := make(chan result, 1)
	go func() {
		buf, retryable, err := m.readRangeOnce(nil, "record-00000.pcr", offset, length, false)
		done <- result{buf, retryable, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a ranged read against an endless 200 body did not return")
	}
	if r.err == nil || r.retryable || r.buf != nil {
		t.Fatalf("ranged read answered 200: %d bytes, retryable %v, error %v; want a final error", len(r.buf), r.retryable, r.err)
	}
	if body.taken != 0 {
		t.Fatalf("took %d bytes from the body, want none", body.taken)
	}
	select {
	case <-body.closed:
	default:
		t.Fatal("the refused body was not closed")
	}
}

// endlessIndex serves a one-member /cluster document and answers /index
// with body, declaring a length over maxIndexBytes when declared is set.
type endlessIndex struct {
	body     *endlessBody
	declared bool
	indexes  atomic.Int32
}

func (t *endlessIndex) RoundTrip(req *http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: http.Header{}, ContentLength: -1, Request: req}
	if req.URL.Path == "/cluster" {
		resp.Body = io.NopCloser(strings.NewReader(`{"members":["http://pcr.invalid"],"replication":1}`))
		return resp, nil
	}
	t.indexes.Add(1)
	if t.declared {
		resp.ContentLength = maxIndexBytes + 1
	}
	resp.Body = t.body
	return resp, nil
}

// TestFetchIndexBoundsBody: against a server whose /index body never ends,
// FetchIndex fails promptly after one request, without retrying, having
// taken at most maxIndexBytes+1 bytes of the body; a body whose
// Content-Length is over the bound is refused unread, drained only as far
// as drainClose drains an error body.
func TestFetchIndexBoundsBody(t *testing.T) {
	defer func(bound int64) { maxIndexBytes = bound }(maxIndexBytes)
	maxIndexBytes = 64 << 10 // below endlessStall, so an unbounded read stalls
	for _, declared := range []bool{false, true} {
		body := &endlessBody{closed: make(chan struct{})}
		t.Cleanup(func() { body.Close() })
		rt := &endlessIndex{body: body, declared: declared}
		c, err := NewClusterClient([]string{"http://pcr.invalid"}, &http.Client{Transport: rt})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.FetchIndex()
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("declared=%v: FetchIndex against an endless /index body did not return", declared)
		}
		if err == nil || !strings.Contains(err.Error(), "over") {
			t.Fatalf("declared=%v: FetchIndex = %v, want a refusal of a body over the bound", declared, err)
		}
		if n := rt.indexes.Load(); n != 1 {
			t.Fatalf("declared=%v: %d /index requests, want 1 (a body over the bound is final)", declared, n)
		}
		limit := maxIndexBytes + 1
		if declared {
			limit = 4 << 10
		}
		if body.taken > limit {
			t.Fatalf("declared=%v: took %d bytes of the body, want at most %d", declared, body.taken, limit)
		}
	}
}

// TestHoldsWindow: a 206 holds the window asked for only when its
// Content-Range names exactly that window, followed by a total, and its
// Content-Length, when declared, is the window's; the check allocates
// nothing.
func TestHoldsWindow(t *testing.T) {
	for _, tc := range []struct {
		contentRange  string
		contentLength int64
		want          bool
	}{
		{"bytes 10-73/1000", 64, true},
		{"bytes 10-73/*", 64, true},
		{"bytes 10-73/1000", -1, true},
		{"bytes 10-73/1000", 65, false},
		{"bytes 11-74/1000", 64, false},
		{"bytes 10-730/1000", 64, false},
		{"bytes 10-73/", 64, false},
		{"bytes 10-73", 64, false},
		{"bytes  10-73/1000", 64, false},
		{"", 64, false},
	} {
		resp := &http.Response{ContentLength: tc.contentLength, Header: http.Header{}}
		if tc.contentRange != "" {
			resp.Header.Set("Content-Range", tc.contentRange)
		}
		if got := holdsWindow(resp, 10, 64); got != tc.want {
			t.Errorf("Content-Range %q, Content-Length %d: holdsWindow = %v, want %v", tc.contentRange, tc.contentLength, got, tc.want)
		}
	}
	resp := &http.Response{ContentLength: 1 << 20, Header: http.Header{"Content-Range": {"bytes 123456789-124505364/999999999"}}}
	if n := testing.AllocsPerRun(100, func() { holdsWindow(resp, 123456789, 1<<20) }); n != 0 {
		t.Fatalf("holdsWindow allocated %.0f times a call", n)
	}
}
