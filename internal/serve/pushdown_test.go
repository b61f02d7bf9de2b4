package serve_test

import (
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/serve"
)

// bitmap packs a selection mask the way the client does (LSB-first,
// trailing zeros trimmed, unpadded base64url) — reimplemented here so the
// test checks the wire format, not the helper against itself.
func bitmap(sel []bool) string {
	buf := make([]byte, (len(sel)+7)/8)
	for i, on := range sel {
		if on {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	n := len(buf)
	for n > 0 && buf[n-1] == 0 {
		n--
	}
	return base64.RawURLEncoding.EncodeToString(buf[:n])
}

// TestSamplesEndpointTable audits GET /records/{name}?samples= the way
// TestResolveRangeTable audits Range: every malformed selection is the
// client's fault (400, never 500), and well-formed ones serve exactly the
// planned bytes with the pushdown header.
func TestSamplesEndpointTable(t *testing.T) {
	_, srv, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	re := &ix.Records[0]
	n := re.Samples
	maxGroup := len(re.Prefixes) - 1
	one := make([]bool, n)
	one[0] = true

	pastEnd := make([]byte, (n+8+7)/8)
	pastEnd[n/8] |= 1 << (n % 8) // bit n of an n-sample record

	cases := []struct {
		name       string
		query      string
		rangeHdr   string
		wantStatus int
	}{
		{"no group", "samples=" + bitmap(one), "", http.StatusBadRequest},
		{"bad group", "group=x&samples=" + bitmap(one), "", http.StatusBadRequest},
		{"negative group", "group=-1&samples=" + bitmap(one), "", http.StatusBadRequest},
		{"samples plus range", "group=1&samples=" + bitmap(one), "bytes=0-9", http.StatusBadRequest},
		{"bad base64", "group=1&samples=" + url.QueryEscape("!!!"), "", http.StatusBadRequest},
		{"padded base64", "group=1&samples=" + url.QueryEscape("AQ=="), "", http.StatusBadRequest},
		{"overlong bitmap", "group=1&samples=" + base64.RawURLEncoding.EncodeToString(make([]byte, n+8)), "", http.StatusBadRequest},
		{"bit past sample count", "group=1&samples=" + base64.RawURLEncoding.EncodeToString(pastEnd), "", http.StatusBadRequest},
		{"giant bitmap", "group=1&samples=" + strings.Repeat("A", 1<<17), "", http.StatusBadRequest},
		{"one sample", "group=1&samples=" + bitmap(one), "", http.StatusOK},
		{"all unselected", "group=1&samples=", "", http.StatusOK}, // empty value = no pushdown, full group
		{"group clamps", "group=999&samples=" + bitmap(one), "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			headers := map[string]string{}
			if tc.rangeHdr != "" {
				headers["Range"] = tc.rangeHdr
			}
			resp, _ := get(t, ts.URL+"/records/"+re.Name+"?"+tc.query, headers)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("server fault %d for a client error", resp.StatusCode)
			}
		})
	}

	// A well-formed selection serves exactly the planned ranges of the full
	// prefix, marked with the pushdown header, and moves the counters.
	sel := make([]bool, n)
	sel[0], sel[n-1] = true, true
	for _, g := range []int{1, maxGroup} {
		ranges, err := re.SampleRanges(g, sel)
		if err != nil {
			t.Fatal(err)
		}
		want := core.RangesTotal(ranges)
		resp, fullPrefix := get(t, ts.URL+"/records/"+re.Name+"?group="+strconv.Itoa(g), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("full read: %s", resp.Status)
		}
		expect, err := core.GatherRanges(nil, fullPrefix, ranges)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()
		resp, body := get(t, ts.URL+"/records/"+re.Name+"?group="+strconv.Itoa(g)+"&samples="+bitmap(sel), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pushdown read: %s", resp.Status)
		}
		if resp.Header.Get("X-Pcr-Pushdown") != strconv.Itoa(len(ranges)) {
			t.Fatalf("pushdown header = %q, want %d ranges", resp.Header.Get("X-Pcr-Pushdown"), len(ranges))
		}
		if int64(len(body)) != want {
			t.Fatalf("group %d: got %d bytes, planned %d", g, len(body), want)
		}
		if string(body) != string(expect) {
			t.Fatalf("group %d: pushdown bytes differ from gathered full prefix", g)
		}
		after := srv.Stats()
		if after.PushdownRequests != before.PushdownRequests+1 {
			t.Fatalf("PushdownRequests %d -> %d", before.PushdownRequests, after.PushdownRequests)
		}
		if saved := after.PushdownBytesSaved - before.PushdownBytesSaved; saved != re.Prefixes[g]-want {
			t.Fatalf("PushdownBytesSaved delta = %d, want %d", saved, re.Prefixes[g]-want)
		}
	}

	// HEAD plans without serving a body.
	req, _ := http.NewRequest(http.MethodHead, ts.URL+"/records/"+re.Name+"?group=1&samples="+bitmap(sel), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pcr-Pushdown") == "" {
		t.Fatalf("HEAD: %s, header %q", resp.Status, resp.Header.Get("X-Pcr-Pushdown"))
	}

	// Conditional pushdown requests revalidate like record reads.
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("pushdown response has no ETag")
	}
	resp, _ = get(t, ts.URL+"/records/"+re.Name+"?group=1&samples="+bitmap(sel),
		map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: %s, want 304", resp.Status)
	}
}

// TestClientReadSamplesPushdown: the client's pushdown read returns
// exactly the bytes a local gather over the full prefix produces, and the
// server counters prove only the selected ranges moved — read range by range
// from the backing store, or gathered from one lookup of the hot cache.
func TestClientReadSamplesPushdown(t *testing.T) {
	for name, opts := range map[string]*serve.Options{"cacheless": nil, "hot cache": {CacheBytes: 8 << 20}} {
		t.Run(name, func(t *testing.T) {
			_, srv, ts := startServer(t, opts)
			c, err := serve.NewClusterClient([]string{ts.URL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ix, err := c.FetchIndex()
			if err != nil {
				t.Fatal(err)
			}
			re := &ix.Records[0]
			g := len(re.Prefixes) - 1
			sel := make([]bool, re.Samples)
			sel[0] = true

			full, err := c.ReadRange(re.Name, 0, re.Prefixes[g])
			if err != nil {
				t.Fatal(err)
			}
			ranges, err := re.SampleRanges(g, sel)
			if err != nil {
				t.Fatal(err)
			}
			expect, err := core.GatherRanges(nil, full, ranges)
			if err != nil {
				t.Fatal(err)
			}

			before := srv.Stats()
			got, err := c.ReadSamples(re.Name, g, sel)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(expect) {
				t.Fatal("ReadSamples bytes differ from local gather")
			}
			after := srv.Stats()
			if after.PushdownRequests != before.PushdownRequests+1 {
				t.Fatalf("PushdownRequests %d -> %d", before.PushdownRequests, after.PushdownRequests)
			}
			if served := after.BytesServed - before.BytesServed; served != core.RangesTotal(ranges) {
				t.Fatalf("pushdown moved %d bytes, want %d (only the selected ranges)", served, core.RangesTotal(ranges))
			}
			if hits := after.Cache.Hits - before.Cache.Hits; opts != nil && (hits != 1 || len(ranges) < 2) {
				t.Fatalf("a pushdown request of %d ranges looked the hot cache up %d times, want once", len(ranges), hits)
			}
		})
	}
}

// TestClientReadSamplesOldServerFallback: there is no fallback. A 200 that
// does not carry the pushdown header — here the whole group prefix, from a
// stand-in that answers as if it had never heard of ?samples= — is not an
// answer to the request the client made: ReadSamples refuses it, once,
// without retrying.
func TestClientReadSamplesOldServerFallback(t *testing.T) {
	_, _, ts := startServer(t, nil)
	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The stand-in drops the samples parameter before passing a request on,
	// which is what a handler that never knew it would answer.
	var dropped atomic.Int32
	proxy := httputil.NewSingleHostReverseProxy(target)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query(); q.Has("samples") {
			dropped.Add(1)
			q.Del("samples")
			r.URL.RawQuery = q.Encode()
		}
		proxy.ServeHTTP(w, r)
	}))
	defer old.Close()

	c, err := serve.NewClusterClient([]string{old.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ix, err := c.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	re := ix.Records[0]
	sel := make([]bool, re.Samples)
	sel[re.Samples/2] = true
	got, err := c.ReadSamples(re.Name, 1, sel)
	if err == nil || got != nil || !strings.Contains(err.Error(), "X-Pcr-Pushdown") {
		t.Fatalf("ReadSamples over a server without pushdown = %d bytes, %v; want a refusal naming the missing header", len(got), err)
	}
	if n := dropped.Load(); n != 1 {
		t.Fatalf("the refused read was tried %d times, want once", n)
	}
}

// TestReadSamplesIntoSeamCases: a pushdown read lands in dst when it has
// room and in a new buffer of exactly the answer's length otherwise, with
// the bytes ReadSamples reads.
func TestReadSamplesIntoSeamCases(t *testing.T) {
	_, _, ts := startServer(t, nil)
	c, err := serve.NewClusterClient([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ix, err := c.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	re := ix.Records[0]
	sel := make([]bool, re.Samples)
	sel[0], sel[re.Samples-1] = true, true
	want, err := c.ReadSamples(re.Name, 1, sel)
	if err != nil {
		t.Fatal(err)
	}
	n := len(want)
	for _, tc := range []struct {
		name string
		dst  []byte
	}{
		{"nil", nil},
		{"small", make([]byte, n-1)},
		{"large", make([]byte, 0, 2*n)},
	} {
		got, err := c.ReadSamplesInto(tc.dst, re.Name, 1, sel)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: ReadSamplesInto read other bytes than ReadSamples", tc.name)
		}
		if into := cap(tc.dst) >= n; into != (unsafe.SliceData(got) == unsafe.SliceData(tc.dst)) {
			t.Fatalf("%s: cap(dst) = %d: read into dst = %v, want %v", tc.name, cap(tc.dst), !into, into)
		} else if !into && cap(got) != n {
			t.Fatalf("%s: new buffer has capacity %d, want exactly %d", tc.name, cap(got), n)
		}
	}
}
