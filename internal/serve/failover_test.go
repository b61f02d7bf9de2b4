package serve_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestReadsShareOneFailoverLoop: ReadRange, ReadSamples and Open meet a
// misbehaving member with the same policy — the same number of attempts
// and the same ClusterStats — because they run the same loop. The member
// is a real standalone server behind a script that answers the n-th record
// request (0-based) itself when it returns a status; /cluster and /index
// pass through uncounted, so the counts are per read.
func TestReadsShareOneFailoverLoop(t *testing.T) {
	_, srv, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	re := &ix.Records[0]
	sel := make([]bool, re.Samples)
	sel[0] = true

	reads := map[string]func(c *serve.ClusterClient) error{
		"ReadRange": func(c *serve.ClusterClient) error {
			buf, err := c.ReadRange(re.Name, 0, 64)
			if err == nil && len(buf) != 64 {
				t.Errorf("ReadRange returned %d bytes, want 64", len(buf))
			}
			return err
		},
		"ReadSamples": func(c *serve.ClusterClient) error {
			ranges, err := re.SampleRanges(1, sel)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := c.ReadSamples(re.Name, 1, sel)
			if err == nil && int64(len(buf)) != core.RangesTotal(ranges) {
				t.Errorf("ReadSamples returned %d bytes, want %d", len(buf), core.RangesTotal(ranges))
			}
			return err
		},
		"Open": func(c *serve.ClusterClient) error {
			rc, err := c.Open(re.Name)
			if err != nil {
				return err
			}
			defer rc.Close()
			if n, _ := io.Copy(io.Discard, rc); n != re.Prefixes[len(re.Prefixes)-1] {
				t.Errorf("Open streamed %d bytes, want the whole record's %d", n, re.Prefixes[len(re.Prefixes)-1])
			}
			return nil
		},
	}
	ok := func(t *testing.T, read string, err error) {
		if err != nil {
			t.Errorf("%s: %v", read, err)
		}
	}
	failsWith := func(substr string, is error) func(*testing.T, string, error) {
		return func(t *testing.T, read string, err error) {
			if err == nil || !strings.Contains(err.Error(), substr) || (is != nil && !errors.Is(err, is)) {
				t.Errorf("%s: error %v, want one naming %q (and matching %v)", read, err, substr, is)
			}
		}
	}

	for _, sc := range []struct {
		name string
		// script is the member's answer to its n-th record request: a status
		// to fail it with, or 0 to pass it to the real server.
		script   func(n int) int
		attempts int
		stats    serve.ClusterStats
		check    func(t *testing.T, read string, err error)
		// dropSamples passes requests on without their samples parameter, so
		// that a samples request is answered without the pushdown header.
		dropSamples bool
	}{
		{name: "transient then success", attempts: 3, check: ok,
			script: func(n int) int {
				if n < 2 {
					return http.StatusServiceUnavailable
				}
				return 0
			},
			// One membership refresh before each pass after the first.
			stats: serve.ClusterStats{Refreshes: 2}},
		{name: "structural 404", attempts: 1, check: failsWith("404", nil),
			script: func(int) int { return http.StatusNotFound }},
		{name: "structural 416", attempts: 1,
			script: func(int) int { return http.StatusRequestedRangeNotSatisfiable },
			check: func(t *testing.T, read string, err error) {
				if read == "ReadRange" { // whose window the index is answerable for
					failsWith("past end of record", core.ErrCorrupt)(t, read, err)
				} else {
					failsWith("416", nil)(t, read, err)
				}
			}},
		{name: "structural pushdown header missing", attempts: 1, dropSamples: true,
			script: func(int) int { return 0 },
			check: func(t *testing.T, read string, err error) {
				if read == "ReadSamples" { // the one read the parameter was part of
					failsWith("X-Pcr-Pushdown", nil)(t, read, err)
				} else {
					ok(t, read, err)
				}
			}},
		{name: "misdirected", attempts: 3, check: failsWith("misdirected", nil),
			script: func(int) int { return http.StatusMisdirectedRequest },
			// A refresh per 421, and one before each pass after the first.
			stats: serve.ClusterStats{Misdirects: 3, Refreshes: 5}},
		{name: "budget exhausted", attempts: 3, check: failsWith("503", nil),
			script: func(int) int { return http.StatusServiceUnavailable },
			stats:  serve.ClusterStats{Refreshes: 2}},
	} {
		for read, do := range reads {
			t.Run(sc.name+"/"+read, func(t *testing.T) {
				t.Parallel()
				var requests atomic.Int32
				member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/records/") {
						if status := sc.script(int(requests.Add(1)) - 1); status != 0 {
							http.Error(w, "scripted", status)
							return
						}
						if q := r.URL.Query(); sc.dropSamples && q.Has("samples") {
							q.Del("samples")
							r.URL.RawQuery = q.Encode()
						}
					}
					srv.ServeHTTP(w, r)
				}))
				defer member.Close()
				c, err := serve.NewClusterClient([]string{member.URL}, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				sc.check(t, read, do(c))
				if n := int(requests.Load()); n != sc.attempts {
					t.Errorf("%s made %d attempts, want %d", read, n, sc.attempts)
				}
				if st := c.Stats(); st != sc.stats {
					t.Errorf("%s left stats %+v, want %+v", read, st, sc.stats)
				}
			})
		}
	}
}
