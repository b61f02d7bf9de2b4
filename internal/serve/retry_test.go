package serve_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// flakyHandler makes the first `failures` requests fail in the configured
// way, then serves normally — the shape of a transient network or server
// hiccup mid-epoch. The membership document passes through, neither failed
// nor counted, so the attempts a test counts are those of the read it made.
type flakyHandler struct {
	inner http.Handler
	mode  string // "reset", "truncate", "unavailable"

	mu        sync.Mutex
	remaining int
	attempts  int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/cluster" {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.mu.Lock()
	f.attempts++
	fail := f.remaining > 0
	if fail {
		f.remaining--
	}
	f.mu.Unlock()
	if !fail {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.mode {
	case "reset":
		// Drop the connection before writing a response: the client sees a
		// connection reset / unexpected EOF at the transport layer.
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server does not support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	case "truncate":
		// Promise a body and cut it short: the client's body read fails
		// with an unexpected EOF mid-transfer. A ranged request gets the
		// 206 a prefix server sends, declaring the window asked for.
		status, length := http.StatusOK, 1<<20
		if rng, ok := strings.CutPrefix(r.Header.Get("Range"), "bytes="); ok {
			first, last, _ := strings.Cut(rng, "-")
			a, _ := strconv.Atoi(first)
			b, _ := strconv.Atoi(last)
			status, length = http.StatusPartialContent, b-a+1
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", a, b, 1<<20))
		}
		w.Header().Set("Content-Length", strconv.Itoa(length))
		w.WriteHeader(status)
		w.Write([]byte("short"))
	case "unavailable":
		http.Error(w, "try again", http.StatusServiceUnavailable)
	}
}

func (f *flakyHandler) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

// flakyServer wraps a real prefix server in a flakyHandler.
func flakyServer(t *testing.T, mode string, failures int) (*flakyHandler, *httptest.Server, *core.Index) {
	t.Helper()
	_, srv, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	flaky := &flakyHandler{inner: srv, mode: mode, remaining: failures}
	fts := httptest.NewServer(flaky)
	t.Cleanup(fts.Close)
	return flaky, fts, ix
}

// TestClientRetriesTransientFailures: ReadRange, Open, and FetchIndex
// survive a server that fails the first N attempts — connection resets,
// truncated bodies, 503s — without surfacing an error to the scan.
func TestClientRetriesTransientFailures(t *testing.T) {
	for _, mode := range []string{"reset", "truncate", "unavailable"} {
		t.Run("readrange_"+mode, func(t *testing.T) {
			flaky, fts, ix := flakyServer(t, mode, 2)
			c, err := serve.NewClusterClient([]string{fts.URL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rec := ix.Records[0]
			got, err := c.ReadRange(rec.Name, 0, 64)
			if err != nil {
				t.Fatalf("ReadRange through a flaky server: %v", err)
			}
			if len(got) != 64 {
				t.Fatalf("got %d bytes, want 64", len(got))
			}
			if n := flaky.count(); n != 3 {
				t.Fatalf("server saw %d attempts, want 2 failures + 1 success", n)
			}
		})
	}

	t.Run("open_reset", func(t *testing.T) {
		flaky, fts, ix := flakyServer(t, "reset", 2)
		c, err := serve.NewClusterClient([]string{fts.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rc, err := c.Open(ix.Records[0].Name)
		if err != nil {
			t.Fatalf("Open through a flaky server: %v", err)
		}
		rc.Close()
		if n := flaky.count(); n != 3 {
			t.Fatalf("server saw %d attempts, want 3", n)
		}
	})

	t.Run("index_unavailable", func(t *testing.T) {
		flaky, fts, _ := flakyServer(t, "unavailable", 2)
		c, err := serve.NewClusterClient([]string{fts.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.FetchIndex(); err != nil {
			t.Fatalf("FetchIndex through a flaky server: %v", err)
		}
		if n := flaky.count(); n != 3 {
			t.Fatalf("server saw %d attempts, want 3", n)
		}
	})
}

// TestClientRetryBudgetExhausted: a persistently failing server surfaces an
// error after the bounded attempt budget — no infinite retry loops.
func TestClientRetryBudgetExhausted(t *testing.T) {
	flaky, fts, ix := flakyServer(t, "unavailable", 1_000_000)
	c, err := serve.NewClusterClient([]string{fts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReadRange(ix.Records[0].Name, 0, 64); err == nil {
		t.Fatal("ReadRange against a dead server succeeded")
	} else if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error does not carry the final status: %v", err)
	}
	if n := flaky.count(); n != 3 {
		t.Fatalf("server saw %d attempts, want exactly the retry budget 3", n)
	}
}

// TestClientDoesNotRetryStructuralErrors: deterministic failures — a range
// past the end of a record (416), a missing record (404) — fail
// immediately with a single attempt; retrying them would only mask
// corruption and triple every hard error's latency.
func TestClientDoesNotRetryStructuralErrors(t *testing.T) {
	t.Run("416_is_corrupt", func(t *testing.T) {
		flaky, fts, ix := flakyServer(t, "", 0)
		c, err := serve.NewClusterClient([]string{fts.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec := ix.Records[0]
		recLen := rec.Prefixes[len(rec.Prefixes)-1]
		_, err = c.ReadRange(rec.Name, recLen+10, 64)
		if !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("range past end: %v, want ErrCorrupt", err)
		}
		if n := flaky.count(); n != 1 {
			t.Fatalf("server saw %d attempts for a structural error, want 1", n)
		}
	})

	t.Run("3xx_is_final", func(t *testing.T) {
		_, srv, ts := startServer(t, nil)
		ix := fetchIndex(t, ts)
		var mu sync.Mutex
		redirected, followed := 0, 0
		target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			followed++
			mu.Unlock()
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(target.Close)
		moved := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster" {
				srv.ServeHTTP(w, r)
				return
			}
			mu.Lock()
			redirected++
			mu.Unlock()
			http.Redirect(w, r, target.URL+r.URL.Path, http.StatusFound)
		}))
		t.Cleanup(moved.Close)
		c, err := serve.NewClusterClient([]string{moved.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.ReadRange(ix.Records[0].Name, 0, 64); err == nil || !strings.Contains(err.Error(), "302") {
			t.Fatalf("read redirected elsewhere: %v, want an error naming the 302", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if redirected != 1 || followed != 0 {
			t.Fatalf("%d requests redirected and %d followed, want 1 and 0", redirected, followed)
		}
	})

	t.Run("404_fails_fast", func(t *testing.T) {
		flaky, fts, _ := flakyServer(t, "", 0)
		c, err := serve.NewClusterClient([]string{fts.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.ReadRange("no-such-record", 0, 64); err == nil {
			t.Fatal("read of a missing record succeeded")
		}
		if n := flaky.count(); n != 1 {
			t.Fatalf("server saw %d attempts for a 404, want 1", n)
		}
	})
}

// TestClientTimeoutBoundsEachRetry: the client's Timeout is each request's
// deadline, over the body as well as the headers: against a server that
// sends a 206's headers and then stalls its body, a read fails after its
// three attempts, each cut off at the deadline, rather than hanging.
func TestClientTimeoutBoundsEachRetry(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.Header().Set("Content-Range", "bytes 0-63/1000")
		w.Header().Set("Content-Length", "64")
		w.WriteHeader(http.StatusPartialContent)
		w.Write([]byte("short"))
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(stall.Close)
	c, err := serve.NewClusterClient([]string{stall.URL}, &http.Client{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	// A standalone server: the /cluster document is not served, so the
	// client falls back to the seed alone.
	_, err = c.ReadRange("record-00000.pcr", 0, 64)
	if err == nil {
		t.Fatal("a read whose body never arrives succeeded")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the read took %v to fail against a stalled body, want each attempt cut off at 100ms", took)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts < 3 {
		t.Fatalf("%d record requests, want the retry budget's 3", attempts)
	}
}
