package serve_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
)

// shortBody answers every record request 206 with the Content-Range and
// Content-Length of the 64-byte range the tests ask for and only half its
// bytes, as a connection cut mid-transfer would; the membership document
// passes through.
type shortBody struct{ inner http.Handler }

func (h shortBody) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/cluster" {
		h.inner.ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Length", "64")
	w.Header().Set("Content-Range", "bytes 0-63/64")
	w.WriteHeader(http.StatusPartialContent)
	w.Write(make([]byte, 32))
}

// TestReadRangeIntoSeamCases runs the client's ReadRange cases through the
// read-into seam with no buffer, one too small and one larger than the
// range: a read lands in dst when it has room and in a new exact-size
// buffer otherwise; a negative length, a 416 and a short body fail as
// they do through ReadRange.
func TestReadRangeIntoSeamCases(t *testing.T) {
	_, srv, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	rec := ix.Records[0]
	want, err := serve.NewClusterClient([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	wantBytes, err := want.ReadRange(rec.Name, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	short := startShortBody(t, srv)

	for _, tc := range []struct {
		name string
		dst  []byte
	}{
		{"nil", nil},
		{"small", make([]byte, 8)},
		{"large", make([]byte, 0, 256)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := serve.NewClusterClient([]string{ts.URL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got, err := c.ReadRangeInto(tc.dst, rec.Name, 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatal("ReadRangeInto read other bytes than ReadRange")
			}
			if into := cap(tc.dst) >= 64; into != (unsafe.SliceData(got) == unsafe.SliceData(tc.dst)) {
				t.Fatalf("cap(dst) = %d: read into dst = %v, want %v", cap(tc.dst), !into, into)
			} else if !into && cap(got) != 64 {
				t.Fatalf("new buffer has capacity %d, want exactly 64", cap(got))
			}

			if _, err := c.ReadRangeInto(tc.dst, rec.Name, 0, -1); err == nil || !strings.Contains(err.Error(), "negative") {
				t.Fatalf("negative length: %v, want a refusal", err)
			}
			recLen := rec.Prefixes[len(rec.Prefixes)-1]
			if _, err := c.ReadRangeInto(tc.dst, rec.Name, recLen+10, 64); !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("range past end (416): %v, want ErrCorrupt", err)
			}

			sc, err := serve.NewClusterClient([]string{short}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			if _, err := sc.ReadRangeInto(tc.dst, rec.Name, 0, 64); !errors.Is(err, core.ErrCorrupt) || !strings.Contains(err.Error(), "truncated response") {
				t.Fatalf("short body: %v, want a truncated-response ErrCorrupt", err)
			}
		})
	}
}

// startShortBody serves srv's membership document behind shortBody.
func startShortBody(t *testing.T, srv *serve.Server) string {
	t.Helper()
	urls, install := scriptedFleet(t, 1)
	install(0, shortBody{inner: srv})
	return urls[0]
}

// TestReadRangeIntoHedgeLoserNeverWrites: with the hedge forced on a
// two-member fleet whose owner answers late and with other bytes, the
// read returns the backup's answer in a buffer of its own — not the
// caller's — and neither that buffer nor the caller's is written by the
// losing request, before or after it completes. With hedging off, the
// same read lands in the caller's buffer.
func TestReadRangeIntoHedgeLoserNeverWrites(t *testing.T) {
	const rec = "records/000000.pcr"
	const length = 4096
	urls, install := scriptedFleet(t, 2)
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner(rec)
	release := make(chan struct{})
	loserDone := make(chan struct{})
	var hedging atomic.Bool
	hedging.Store(true)
	for i, u := range urls {
		self := u
		install(i, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/cluster") {
				w.Write(clusterInfoJSON(t, urls, 2, self))
				return
			}
			fill := byte('b')
			if self == owner {
				fill = 'o'
				if hedging.Load() {
					// The owner answers only once the backup has won.
					<-release
					defer close(loserDone)
				}
			}
			w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", length-1, length))
			w.WriteHeader(http.StatusPartialContent)
			w.Write(bytes.Repeat([]byte{fill}, length))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}))
	}

	cc, err := serve.NewClusterClient([]string{urls[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.SetHedgeDelay(time.Millisecond)
	dst := bytes.Repeat([]byte{'d'}, 2*length)
	got, err := cc.ReadRangeInto(dst, rec, 0, length)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if st := cc.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges %d, hedge wins %d: want the backup to have won a forced hedge", st.Hedges, st.HedgeWins)
	}
	if unsafe.SliceData(got) == unsafe.SliceData(dst) {
		t.Fatal("a hedged read returned the caller's buffer")
	}
	<-loserDone
	// The loser's body has been sent; give its reader time to take it.
	time.Sleep(50 * time.Millisecond)
	if !bytes.Equal(got, bytes.Repeat([]byte{'b'}, length)) {
		t.Fatal("the buffer a hedged read returned was written by its losing request")
	}
	if !bytes.Equal(dst, bytes.Repeat([]byte{'d'}, 2*length)) {
		t.Fatal("a hedged pair wrote into the caller's buffer")
	}

	hedging.Store(false)
	cc.SetHedgeDelay(-1)
	got, err = cc.ReadRangeInto(dst, rec, 0, length)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(got) != unsafe.SliceData(dst) || !bytes.Equal(got, bytes.Repeat([]byte{'o'}, length)) {
		t.Fatal("with hedging off, the owner's answer did not land in the caller's buffer")
	}
}
