package serve_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
)

// wrongWindow wraps a prefix server so that its record answers hold other
// bytes than the ones asked for. "shifted" serves the range one byte later
// than asked, under that window's Content-Range; "preamble" sends one junk
// byte before the body it would have sent, with a Content-Length one
// longer (and a 206's Content-Range unchanged).
type wrongWindow struct {
	inner http.Handler
	mode  string
	hits  atomic.Int64
}

func (h *wrongWindow) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/records/") {
		h.inner.ServeHTTP(w, r)
		return
	}
	h.hits.Add(1)
	if h.mode == "shifted" {
		var first, last int64
		fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &first, &last)
		r.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", first+1, last+1))
		h.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	body := append([]byte{0xA5}, rec.Body.Bytes()...)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestAnswerHeldToWindowAsked: a 206 whose Content-Range is another window
// than the one asked for, or whose Content-Length is not the window's, and
// a pushdown answer whose Content-Length is not the planned total, are
// refused as core.ErrCorrupt — never spliced as the bytes asked for — and
// retried as a truncated body is: from a lone member the read fails after
// more than one attempt, and in a two-member fleet the other replica
// serves it.
func TestAnswerHeldToWindowAsked(t *testing.T) {
	_, srv, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	re := ix.Records[0]
	honest, err := serve.NewClusterClient([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	sel := make([]bool, re.Samples)
	for i := range sel {
		sel[i] = i%3 == 0
	}
	reads := map[string]func(c *serve.ClusterClient) ([]byte, error){
		"range": func(c *serve.ClusterClient) ([]byte, error) { return c.ReadRange(re.Name, 10, 64) },
		"pushdown": func(c *serve.ClusterClient) ([]byte, error) {
			return c.ReadSamples(re.Name, 1, sel)
		},
	}
	for _, tc := range []struct{ mode, read string }{
		{"shifted", "range"},
		{"preamble", "range"},
		{"preamble", "pushdown"},
	} {
		t.Run(tc.mode+"-"+tc.read, func(t *testing.T) {
			read := reads[tc.read]
			want, err := read(honest)
			if err != nil {
				t.Fatal(err)
			}

			wrong := &wrongWindow{inner: srv, mode: tc.mode}
			urls, install := scriptedFleet(t, 1)
			install(0, wrong)
			lone, err := serve.NewClusterClient(urls, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer lone.Close()
			got, err := read(lone)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("read through a member answering another window = %d bytes, %v; want ErrCorrupt", len(got), err)
			}
			if got != nil {
				t.Fatalf("a refused read returned %d bytes", len(got))
			}
			if n := wrong.hits.Load(); n < 2 {
				t.Fatalf("the member was asked %d times, want a retry", n)
			}

			urls, install = scriptedFleet(t, 2)
			ring, err := cluster.New(urls)
			if err != nil {
				t.Fatal(err)
			}
			wrong = &wrongWindow{inner: srv, mode: tc.mode}
			for i, self := range urls {
				var h http.Handler = srv
				if self == ring.Owner(re.Name) {
					h = wrong
				}
				install(i, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/cluster" {
						w.Write(clusterInfoJSON(t, urls, 2, self))
						return
					}
					h.ServeHTTP(w, r)
				}))
			}
			fleet, err := serve.NewClusterClient(urls, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			fleet.SetHedgeDelay(-1)
			got, err = read(fleet)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("fleet read = %d bytes, %v; want the honest replica's %d", len(got), err, len(want))
			}
			if n, st := wrong.hits.Load(), fleet.Stats(); n != 1 || st.Failovers != 1 {
				t.Fatalf("owner asked %d times, %d failovers; want its refused answer to fail over once", n, st.Failovers)
			}
		})
	}
}
