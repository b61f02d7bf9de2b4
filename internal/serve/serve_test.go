package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/pcr"
)

// startServer synthesizes a small dataset and serves it.
func startServer(t *testing.T, opts *serve.Options, dsOpts ...pcr.Option) (dir string, srv *serve.Server, ts *httptest.Server) {
	t.Helper()
	dir = t.TempDir()
	if len(dsOpts) == 0 {
		dsOpts = []pcr.Option{pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)}
	}
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 1, dsOpts...); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return dir, srv, ts
}

func fetchIndex(t *testing.T, ts *httptest.Server) *core.Index {
	t.Helper()
	resp, err := http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /index: %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// get issues a GET with optional headers and returns the response and body.
func get(t *testing.T, url string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	return request(t, http.MethodGet, url, headers)
}

// request issues a request with optional headers and returns the response
// and body.
func request(t *testing.T, method, url string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestIndexRoundTripAndETag(t *testing.T) {
	dir, _, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	if len(ix.Records) == 0 || ix.NumImages == 0 {
		t.Fatalf("index is empty: %+v", ix)
	}
	// The served index must match what the local dataset reports.
	ds, err := core.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ix.NumImages != ds.NumImages() || len(ix.Records) != ds.NumRecords() || ix.NumGroups != ds.NumGroups {
		t.Fatalf("served index %+v disagrees with local dataset", ix)
	}

	resp, _ := get(t, ts.URL+"/index", nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("index has no ETag")
	}
	resp304, body := get(t, ts.URL+"/index", map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match: got %s with %d body bytes, want 304 empty", resp304.Status, len(body))
	}
}

// TestIndexShardView: ?shard=i&nshards=n returns the stride partition of
// the record index — disjoint across shards, covering, with its own ETag.
func TestIndexShardView(t *testing.T) {
	_, _, ts := startServer(t, nil)
	whole := fetchIndex(t, ts)

	const nshards = 3
	seen := make(map[string]int)
	images := 0
	var etags []string
	for shard := 0; shard < nshards; shard++ {
		url := fmt.Sprintf("%s/index?shard=%d&nshards=%d", ts.URL, shard, nshards)
		resp, body := get(t, url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: %s", shard, resp.Status)
		}
		ix, err := core.ParseIndex(body)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if ix.NumGroups != whole.NumGroups {
			t.Fatalf("shard %d reports %d groups, want %d", shard, ix.NumGroups, whole.NumGroups)
		}
		for _, re := range ix.Records {
			if prev, dup := seen[re.Name]; dup {
				t.Fatalf("record %s appears in shards %d and %d", re.Name, prev, shard)
			}
			seen[re.Name] = shard
			images += re.Samples
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("shard %d view has no ETag", shard)
		}
		etags = append(etags, etag)
		resp304, _ := get(t, url, map[string]string{"If-None-Match": etag})
		if resp304.StatusCode != http.StatusNotModified {
			t.Fatalf("shard %d If-None-Match: %s, want 304", shard, resp304.Status)
		}
	}
	if len(seen) != len(whole.Records) || images != whole.NumImages {
		t.Fatalf("shard views cover %d records / %d images, want %d / %d",
			len(seen), images, len(whole.Records), whole.NumImages)
	}
	for i := 1; i < len(etags); i++ {
		if etags[i] == etags[0] {
			t.Fatalf("shards %d and 0 share ETag %s", i, etags[0])
		}
	}

	for _, bad := range []string{"shard=0", "nshards=2", "shard=2&nshards=2", "shard=-1&nshards=2", "shard=x&nshards=2", "shard=0&nshards=0"} {
		resp, _ := get(t, ts.URL+"/index?"+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/index?%s: %s, want 400", bad, resp.Status)
		}
	}
}

func TestRecordRangeSemantics(t *testing.T) {
	dir, _, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	re := ix.Records[0]
	full, err := os.ReadFile(filepath.Join(dir, re.Name))
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(full))
	if want := re.Prefixes[len(re.Prefixes)-1]; size != want {
		t.Fatalf("record file is %d bytes, index says %d", size, want)
	}
	url := ts.URL + "/records/" + re.Name

	cases := []struct {
		name       string
		rangeHdr   string
		wantStatus int
		wantBody   []byte
		wantCR     string // Content-Range
	}{
		{"full", "", http.StatusOK, full, ""},
		{"mid range", "bytes=10-19", http.StatusPartialContent, full[10:20], fmt.Sprintf("bytes 10-19/%d", size)},
		{"open ended", "bytes=5-", http.StatusPartialContent, full[5:], fmt.Sprintf("bytes 5-%d/%d", size-1, size)},
		{"suffix", "bytes=-7", http.StatusPartialContent, full[size-7:], fmt.Sprintf("bytes %d-%d/%d", size-7, size-1, size)},
		{"clamped end", fmt.Sprintf("bytes=0-%d", size+1000), http.StatusPartialContent, full, fmt.Sprintf("bytes 0-%d/%d", size-1, size)},
		{"first byte", "bytes=0-0", http.StatusPartialContent, full[:1], fmt.Sprintf("bytes 0-0/%d", size)},
		{"past EOF", fmt.Sprintf("bytes=%d-", size), http.StatusRequestedRangeNotSatisfiable, nil, fmt.Sprintf("bytes */%d", size)},
		{"empty suffix", "bytes=-0", http.StatusRequestedRangeNotSatisfiable, nil, fmt.Sprintf("bytes */%d", size)},
		{"inverted range ignored", "bytes=9-3", http.StatusOK, full, ""},
		{"empty spec ignored", "bytes=", http.StatusOK, full, ""},
		{"multipart ignored", "bytes=0-1,4-5", http.StatusOK, full, ""},
		{"non-bytes unit ignored", "items=0-4", http.StatusOK, full, ""},
		{"whitespace tolerated", "bytes= 10 - 19 ", http.StatusPartialContent, full[10:20], fmt.Sprintf("bytes 10-19/%d", size)},
		{"overflowing end clamps", "bytes=0-99999999999999999999999", http.StatusPartialContent, full, fmt.Sprintf("bytes 0-%d/%d", size-1, size)},
		{"overflowing start unsatisfiable", "bytes=99999999999999999999999-", http.StatusRequestedRangeNotSatisfiable, nil, fmt.Sprintf("bytes */%d", size)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr := map[string]string{}
			if tc.rangeHdr != "" {
				hdr["Range"] = tc.rangeHdr
			}
			resp, body := get(t, url, hdr)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("Range %q: status %s, want %d", tc.rangeHdr, resp.Status, tc.wantStatus)
			}
			if tc.wantStatus != http.StatusRequestedRangeNotSatisfiable && !bytes.Equal(body, tc.wantBody) {
				t.Fatalf("Range %q: body %d bytes, want %d", tc.rangeHdr, len(body), len(tc.wantBody))
			}
			if tc.wantCR != "" {
				if got := resp.Header.Get("Content-Range"); got != tc.wantCR {
					t.Fatalf("Range %q: Content-Range %q, want %q", tc.rangeHdr, got, tc.wantCR)
				}
			}
			if resp.Header.Get("Accept-Ranges") != "bytes" {
				t.Fatalf("Range %q: missing Accept-Ranges", tc.rangeHdr)
			}
		})
	}
}

func TestGroupPrefixView(t *testing.T) {
	dir, _, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	re := ix.Records[0]
	full, err := os.ReadFile(filepath.Join(dir, re.Name))
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/records/" + re.Name

	for g := 0; g < len(re.Prefixes); g++ {
		resp, body := get(t, fmt.Sprintf("%s?group=%d", url, g), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("group=%d: %s", g, resp.Status)
		}
		if want := full[:re.Prefixes[g]]; !bytes.Equal(body, want) {
			t.Fatalf("group=%d: got %d bytes, want the %d-byte prefix", g, len(body), len(want))
		}
	}
	// A group beyond what the record stores clamps to the whole record.
	resp, body := get(t, url+"?group=99", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, full) {
		t.Fatalf("group=99: status %s, %d bytes; want full record", resp.Status, len(body))
	}
	// Range applies within the truncated view: past the group prefix is 416.
	resp, _ = get(t, url+"?group=1", map[string]string{
		"Range": fmt.Sprintf("bytes=%d-", re.Prefixes[1]),
	})
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("range past group prefix: %s, want 416", resp.Status)
	}
	for _, bad := range []string{"-1", "x", ""} {
		resp, _ := get(t, url+"?group="+bad, nil)
		want := http.StatusBadRequest
		if bad == "" { // empty value means "no group filter"
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Fatalf("group=%q: %s, want %d", bad, resp.Status, want)
		}
	}
}

func TestRecordETagAndNotFound(t *testing.T) {
	_, _, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	url := ts.URL + "/records/" + ix.Records[0].Name
	resp, _ := get(t, url, nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("record has no ETag")
	}
	resp304, body := get(t, url, map[string]string{"If-None-Match": etag})
	if resp304.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match: %s with %d bytes, want 304 empty", resp304.Status, len(body))
	}
	respNF, _ := get(t, ts.URL+"/records/no-such-record.pcr", nil)
	if respNF.StatusCode != http.StatusNotFound {
		t.Fatalf("missing record: %s, want 404", respNF.Status)
	}
}

// TestHotCacheServesRepeatsFromMemory: with the server-side LRU on, a
// repeated read costs no backing-store bytes and a group upgrade costs only
// the delta.
func TestHotCacheServesRepeatsFromMemory(t *testing.T) {
	_, srv, ts := startServer(t, &serve.Options{CacheBytes: 1 << 30})
	ix := fetchIndex(t, ts)
	re := ix.Records[0]
	url := ts.URL + "/records/" + re.Name

	get(t, url+"?group=1", nil)
	afterCold := srv.Stats()
	if afterCold.BytesRead != re.Prefixes[1] {
		t.Fatalf("cold group-1 read: BytesRead = %d, want %d", afterCold.BytesRead, re.Prefixes[1])
	}
	get(t, url+"?group=1", nil)
	afterWarm := srv.Stats()
	if afterWarm.BytesRead != afterCold.BytesRead {
		t.Fatalf("warm repeat read hit the backing store: %d → %d bytes", afterCold.BytesRead, afterWarm.BytesRead)
	}
	if afterWarm.Cache.Hits == 0 {
		t.Fatal("warm repeat read did not count a cache hit")
	}
	get(t, url+"?group=2", nil)
	afterUpgrade := srv.Stats()
	if want := afterWarm.BytesRead + (re.Prefixes[2] - re.Prefixes[1]); afterUpgrade.BytesRead != want {
		t.Fatalf("group upgrade read %d backing bytes total, want %d (delta only)", afterUpgrade.BytesRead, want)
	}
	if afterUpgrade.Cache.UpgradeHits == 0 {
		t.Fatal("group upgrade did not count an upgrade hit")
	}
}

// panicOnce is a store whose first read panics.
type panicOnce struct {
	core.Backend
	fired atomic.Bool
}

func (p *panicOnce) ReadRange(name string, offset, length int64) ([]byte, error) {
	if p.fired.CompareAndSwap(false, true) {
		panic("store fault")
	}
	return p.Backend.ReadRange(name, offset, length)
}

// TestHotCacheFillPanicIsA500: a server whose memory tier, or disk tier,
// fills from a store that panics once — or that reads from it with no tier
// between — answers that read 500 without an ETag, and the record's next
// read 200 with the store's bytes.
func TestHotCacheFillPanicIsA500(t *testing.T) {
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 1, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		opts serve.Options
	}{
		{"memory", serve.Options{CacheBytes: 1 << 20}},
		{"disk", serve.Options{DiskCacheDir: t.TempDir()}},
		{"none", serve.Options{}},
	} {
		t.Run(tier.name, func(t *testing.T) {
			ds, err := core.OpenDataset(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			ds.SetBackend(&panicOnce{Backend: ds.Backend()})
			srv, err := serve.NewFromDataset(ds, &tier.opts)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			name := ds.Index().Records[0].Name
			want, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			resp, _ := get(t, ts.URL+"/records/"+name, nil)
			if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("ETag") != "" {
				t.Fatalf("a read whose fill panicked: %s, ETag %q; want 500 and none", resp.Status, resp.Header.Get("ETag"))
			}
			resp, body := get(t, ts.URL+"/records/"+name, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("the next read: %s, %d bytes equal to the store's: %v", resp.Status, len(body), bytes.Equal(body, want))
			}
		})
	}
}

// TestHotCacheLeasesUnderEviction: concurrent record, Range and pushdown
// reads over a hot cache a third the size of the dataset, so fills evict
// prefixes other handlers may still be writing. Every body is the record
// file's bytes: a prefix recycled while a handler held it would be
// overwritten by the fill that took it.
func TestHotCacheLeasesUnderEviction(t *testing.T) {
	dir, _, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	files := make([][]byte, len(ix.Records))
	var total int64
	for i, re := range ix.Records {
		data, err := os.ReadFile(filepath.Join(dir, re.Name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
		total += int64(len(data))
	}
	srv, err := serve.New(dir, &serve.Options{CacheBytes: total / 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hot := httptest.NewServer(srv)
	defer hot.Close()

	fetch := func(url, rangeHdr string) ([]byte, error) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
			return nil, fmt.Errorf("%s: %s", url, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 150 {
				rec := rng.Intn(len(ix.Records))
				re := ix.Records[rec]
				g := 1 + rng.Intn(len(re.Prefixes)-1)
				prefix := files[rec][:re.Prefixes[g]]
				url := fmt.Sprintf("%s/records/%s?group=%d", hot.URL, re.Name, g)
				var want []byte
				var rangeHdr string
				switch rng.Intn(3) {
				case 0:
					want = prefix
				case 1:
					off := rng.Int63n(int64(len(prefix)))
					rangeHdr = fmt.Sprintf("bytes=%d-", off)
					want = prefix[off:]
				default:
					sel := make([]bool, re.Samples)
					for i := range sel {
						sel[i] = rng.Intn(2) == 0
					}
					sel[rng.Intn(re.Samples)] = true
					ranges, err := re.SampleRanges(g, sel)
					if err != nil {
						t.Error(err)
						return
					}
					if want, err = core.GatherRanges(nil, prefix, ranges); err != nil {
						t.Error(err)
						return
					}
					url += "&samples=" + bitmap(sel)
				}
				body, err := fetch(url, rangeHdr)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, want) {
					t.Errorf("%s (Range %q) served wrong bytes", url, rangeHdr)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.Cache.Evictions == 0 || st.Cache.UpgradeHits == 0 {
		t.Fatalf("hot cache counted %+v: the run should have evicted and upgraded", st.Cache)
	}
}

// TestCachelessServerCountsBackingReads: without the hot cache every read
// is a backing-store read and is counted in BytesRead exactly once — a
// group prefix (repeated or not), a Range and a ?samples= selection alike.
func TestCachelessServerCountsBackingReads(t *testing.T) {
	_, srv, ts := startServer(t, &serve.Options{})
	ix := fetchIndex(t, ts)
	re := ix.Records[0]
	url := ts.URL + "/records/" + re.Name
	sel := make([]bool, re.Samples)
	sel[0], sel[re.Samples-1] = true, true

	var want int64
	for _, step := range []struct {
		query string
		hdr   map[string]string
	}{
		{"?group=1", nil},
		{"?group=1", nil},
		{"", map[string]string{"Range": "bytes=10-99"}},
		{"?group=2&samples=" + bitmap(sel), nil},
	} {
		_, body := get(t, url+step.query, step.hdr)
		want += int64(len(body))
		if st := srv.Stats(); st.BytesRead != want || st.BytesServed != want {
			t.Fatalf("after %q %v: BytesRead %d, BytesServed %d; want both %d", step.query, step.hdr, st.BytesRead, st.BytesServed, want)
		}
	}
}

// TestServerDiskCacheTiers: a server serves the same bytes whichever tiers
// it mounts, and its counters say which tier served them. Over no tier,
// memory, disk, and memory over disk it runs a cold scan at group 1, a warm
// re-scan of those prefixes as two Range windows and a pushdown each, an
// upgrade to whole records, and a whole scan from a server reopened over
// the same disk directory. Every body equals the tierless server's;
// BytesRead is what a phase read beneath the memory tier, and
// DiskCache.BytesFetched the share that reached the dataset's files: an
// upgrade fetches exactly the delta, and a scan after the reopen nothing.
func TestServerDiskCacheTiers(t *testing.T) {
	dir, _, ref := startServer(t, &serve.Options{})
	ix := fetchIndex(t, ref)
	phases := []func(re core.RecordInfo) []string{ // the requests of each phase, per record
		func(re core.RecordInfo) []string { return []string{"?group=1", ""} },
		func(re core.RecordInfo) []string {
			sel := make([]bool, re.Samples)
			sel[0], sel[re.Samples-1] = true, true
			h := re.Prefixes[1] / 2
			return []string{"?group=1", fmt.Sprintf("bytes=0-%d", h-1), "?group=1", fmt.Sprintf("bytes=%d-", h), "?group=1&samples=" + bitmap(sel), ""}
		},
		func(re core.RecordInfo) []string { return []string{"", ""} },
		func(re core.RecordInfo) []string { return []string{"", ""} },
	}
	// Per phase: the bytes a tierless server reads (its replies), those
	// read beneath a memory tier, and those a disk tier fetches.
	var tierless, beneathMem, fetched [4]int64
	want := make(map[string][]byte) // reply by record, query and range
	for p, reqs := range phases {
		for _, re := range ix.Records {
			q := reqs(re)
			for i := 0; i < len(q); i += 2 {
				_, body := get(t, ref.URL+"/records/"+re.Name+q[i], map[string]string{"Range": q[i+1]})
				want[re.Name+q[i]+q[i+1]] = body
				tierless[p] += int64(len(body))
			}
			low, full := re.Prefixes[1], re.Prefixes[len(re.Prefixes)-1]
			if p == 0 {
				beneathMem[0] += low
				beneathMem[2] += full - low
				beneathMem[3] += full
				fetched[0] += low
				fetched[2] += full - low
			}
		}
	}

	for _, tc := range []struct {
		name      string
		mem, disk bool
	}{{"none", false, false}, {"mem", true, false}, {"disk", false, true}, {"mem+disk", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := &serve.Options{}
			if tc.mem {
				opts.CacheBytes = 1 << 30
			}
			if tc.disk {
				opts.DiskCacheDir = t.TempDir()
			}
			var srv *serve.Server
			var ts *httptest.Server
			open := func() {
				var err error
				if srv, err = serve.New(dir, opts); err != nil {
					t.Fatal(err)
				}
				ts = httptest.NewServer(srv)
			}
			open()
			defer func() { ts.Close(); srv.Close() }()
			var was serve.Stats
			for p, reqs := range phases {
				if p == 3 {
					ts.Close()
					srv.Close()
					open()
					was = serve.Stats{}
				}
				for _, re := range ix.Records {
					q := reqs(re)
					for i := 0; i < len(q); i += 2 {
						_, body := get(t, ts.URL+"/records/"+re.Name+q[i], map[string]string{"Range": q[i+1]})
						if !bytes.Equal(body, want[re.Name+q[i]+q[i+1]]) {
							t.Fatalf("phase %d: %s%s %q differs from the tierless server's reply", p, re.Name, q[i], q[i+1])
						}
					}
				}
				st := srv.Stats()
				wantRead, wantFetched := tierless[p], int64(0)
				if tc.mem {
					wantRead = beneathMem[p]
				}
				if tc.disk {
					wantFetched = fetched[p]
				}
				if got := st.BytesRead - was.BytesRead; got != wantRead {
					t.Errorf("phase %d: BytesRead %d, want %d", p, got, wantRead)
				}
				if got := st.DiskCache.BytesFetched - was.DiskCache.BytesFetched; got != wantFetched {
					t.Errorf("phase %d: DiskCache.BytesFetched %d, want %d", p, got, wantFetched)
				}
				if p == 3 && tc.disk && st.DiskCache.Recovered != int64(len(ix.Records)) {
					t.Errorf("reopened disk tier recovered %d entries, want %d", st.DiskCache.Recovered, len(ix.Records))
				}
				was = st
			}
		})
	}
}

func TestVarzAndHealthz(t *testing.T) {
	_, srv, ts := startServer(t, &serve.Options{CacheBytes: 1 << 20})
	resp, body := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	_ = body
	fetchIndex(t, ts)
	resp, body = get(t, ts.URL+"/varz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("varz: %s", resp.Status)
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("varz is not Stats JSON: %v", err)
	}
	if st.Requests == 0 {
		t.Fatal("varz reports zero requests after requests were made")
	}
	if st.Requests != srv.Stats().Requests-1 { // -1: the /varz request itself raced the snapshot
		// Allow the snapshot to differ by in-flight requests; just check sanity.
		if st.Requests > srv.Stats().Requests {
			t.Fatalf("varz requests %d exceeds live counter %d", st.Requests, srv.Stats().Requests)
		}
	}
}

// TestConcurrentRangeReads hammers the server with concurrent ranged reads
// across records — the shared LRU and counters must stay consistent (run
// under -race in CI).
func TestConcurrentRangeReads(t *testing.T) {
	dir, srv, ts := startServer(t, &serve.Options{CacheBytes: 1 << 20})
	ix := fetchIndex(t, ts)
	files := make(map[string][]byte)
	for _, re := range ix.Records {
		data, err := os.ReadFile(filepath.Join(dir, re.Name))
		if err != nil {
			t.Fatal(err)
		}
		files[re.Name] = data
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				re := ix.Records[rng.Intn(len(ix.Records))]
				full := files[re.Name]
				start := rng.Int63n(int64(len(full)))
				end := start + rng.Int63n(int64(len(full))-start)
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/records/"+re.Name, nil)
				req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, end))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusPartialContent {
					errc <- fmt.Errorf("range read: %s", resp.Status)
					return
				}
				if !bytes.Equal(body, full[start:end+1]) {
					errc <- fmt.Errorf("range [%d,%d] of %s: wrong bytes", start, end, re.Name)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.RangeRequests == 0 || st.BytesServed == 0 {
		t.Fatalf("counters not advancing: %+v", st)
	}
}

// orderWriter checks, each time a handler releases body bytes, that the
// server has already counted them; limit > 0 makes it a connection that
// accepts only that many bytes.
type orderWriter struct {
	*httptest.ResponseRecorder
	t       *testing.T
	srv     *serve.Server
	before  int64
	written int64
	limit   int
}

func (w *orderWriter) Write(p []byte) (int, error) {
	w.written += int64(len(p))
	if counted := w.srv.Stats().BytesServed - w.before; counted < w.written {
		w.t.Errorf("body bytes released with bytes_served at %d, below the %d handed to Write", counted, w.written)
	}
	if w.limit > 0 && len(p) > w.limit {
		w.ResponseRecorder.Write(p[:w.limit])
		return w.limit, io.ErrShortWrite
	}
	return w.ResponseRecorder.Write(p)
}

// TestBytesServedCountedBeforeRelease: a client that has read its body and
// then asks for Stats (TestSyncReplicas, the benchmark's bytes_per_image)
// must find that body counted, so both record-body paths count before they
// write; a short write leaves only the bytes that left counted.
func TestBytesServedCountedBeforeRelease(t *testing.T) {
	_, srv, ts := startServer(t, nil)
	re := fetchIndex(t, ts).Records[0]
	sel := make([]bool, re.Samples)
	sel[0] = true
	urls := []string{
		"/records/" + re.Name + "?group=1",
		"/records/" + re.Name + "?group=1&samples=" + bitmap(sel),
	}
	start := srv.Stats().BytesServed
	var wg sync.WaitGroup
	var sent atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				w := &orderWriter{ResponseRecorder: httptest.NewRecorder(), t: t, srv: srv, before: start}
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, urls[i%2], nil))
				if w.Code != http.StatusOK || w.written == 0 {
					t.Errorf("GET %s: status %d, %d body bytes", urls[i%2], w.Code, w.written)
				}
				sent.Add(w.written)
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().BytesServed - start; got != sent.Load() {
		t.Fatalf("bytes_served rose by %d for %d body bytes", got, sent.Load())
	}

	for _, u := range urls {
		before := srv.Stats().BytesServed
		w := &orderWriter{ResponseRecorder: httptest.NewRecorder(), t: t, srv: srv, before: before, limit: 100}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, u, nil))
		if got := srv.Stats().BytesServed - before; got != 100 {
			t.Errorf("GET %s cut at 100 bytes: bytes_served rose by %d", u, got)
		}
	}
}

// TestRecordAnswerTails holds both record answers — a record's bytes (whole,
// a group prefix or a window of either) and a pushdown selection — to the
// one tail they share. Each answers its own statuses in its own order: a
// range's 304 before its 416, a pushdown's 400s before its 304. A HEAD
// carries the GET's status, headers and counters without a body, and a read
// that fails underfoot is a 500 without the record's validators.
func TestRecordAnswerTails(t *testing.T) {
	dir, srv, ts := startServer(t, nil)
	ix := fetchIndex(t, ts)
	re := &ix.Records[0]
	url := ts.URL + "/records/" + re.Name
	size := re.Prefixes[len(re.Prefixes)-1]
	sel := make([]bool, re.Samples)
	sel[0], sel[re.Samples-1] = true, true
	ranges, err := re.SampleRanges(1, sel)
	if err != nil {
		t.Fatal(err)
	}
	pushdown := url + "?group=1&samples=" + bitmap(sel)

	resp, _ := request(t, http.MethodHead, url, nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("record has no ETag")
	}
	fresh := map[string]string{"If-None-Match": etag}
	with := func(h map[string]string, k, v string) map[string]string {
		out := map[string]string{k: v}
		for k, v := range h {
			out[k] = v
		}
		return out
	}
	pastEnd := fmt.Sprintf("bytes=%d-", size)

	// Every header either answer may carry; want names those it must, and
	// with what value, and the rest must be absent.
	answerHeaders := []string{"ETag", "Accept-Ranges", "Content-Type", "Content-Range", pushdownHeaderName}
	octets := "application/octet-stream"
	for _, tc := range []struct {
		name    string
		url     string
		headers map[string]string
		status  int
		length  int64 // of a 2xx body
		want    map[string]string
		moves   serve.Stats // the counters one request moves, bytes aside
	}{
		{"whole record", url, nil, http.StatusOK, size,
			map[string]string{"ETag": etag, "Accept-Ranges": "bytes", "Content-Type": octets}, serve.Stats{Requests: 1}},
		{"group prefix", url + "?group=1", nil, http.StatusOK, re.Prefixes[1],
			map[string]string{"ETag": etag, "Accept-Ranges": "bytes", "Content-Type": octets}, serve.Stats{Requests: 1}},
		{"window", url, map[string]string{"Range": "bytes=10-19"}, http.StatusPartialContent, 10,
			map[string]string{"ETag": etag, "Accept-Ranges": "bytes", "Content-Type": octets,
				"Content-Range": fmt.Sprintf("bytes 10-19/%d", size)}, serve.Stats{Requests: 1, RangeRequests: 1}},
		{"range unmodified", url, fresh, http.StatusNotModified, 0,
			map[string]string{"ETag": etag, "Accept-Ranges": "bytes"}, serve.Stats{Requests: 1, NotModified: 1}},
		{"range 304 before 416", url, with(fresh, "Range", pastEnd), http.StatusNotModified, 0,
			map[string]string{"ETag": etag, "Accept-Ranges": "bytes"}, serve.Stats{Requests: 1, NotModified: 1}},
		{"range 416", url, map[string]string{"Range": pastEnd}, http.StatusRequestedRangeNotSatisfiable, 0,
			map[string]string{"ETag": etag, "Accept-Ranges": "bytes", "Content-Type": "text/plain; charset=utf-8",
				"Content-Range": fmt.Sprintf("bytes */%d", size)}, serve.Stats{Requests: 1, Errors: 1}},
		{"range bad group", url + "?group=x", fresh, http.StatusBadRequest, 0,
			map[string]string{"Content-Type": "text/plain; charset=utf-8"}, serve.Stats{Requests: 1, Errors: 1}},
		{"pushdown", pushdown, nil, http.StatusOK, core.RangesTotal(ranges),
			map[string]string{"ETag": etag, "Content-Type": octets, pushdownHeaderName: strconv.Itoa(len(ranges))},
			serve.Stats{Requests: 1, PushdownRequests: 1, PushdownBytesSaved: re.Prefixes[1] - core.RangesTotal(ranges)}},
		{"pushdown unmodified", pushdown, fresh, http.StatusNotModified, 0,
			map[string]string{"ETag": etag}, serve.Stats{Requests: 1, NotModified: 1}},
		{"pushdown no group 400 before 304", url + "?samples=" + bitmap(sel), fresh, http.StatusBadRequest, 0,
			map[string]string{"Content-Type": "text/plain; charset=utf-8"}, serve.Stats{Requests: 1, Errors: 1}},
		{"pushdown Range 400 before 304", pushdown, with(fresh, "Range", "bytes=0-9"), http.StatusBadRequest, 0,
			map[string]string{"Content-Type": "text/plain; charset=utf-8"}, serve.Stats{Requests: 1, Errors: 1}},
		{"pushdown bad bitmap 400 before 304", url + "?group=1&samples=AQ%3D%3D", fresh, http.StatusBadRequest, 0,
			map[string]string{"Content-Type": "text/plain; charset=utf-8"}, serve.Stats{Requests: 1, Errors: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]*http.Response
			var moved [2]serve.Stats
			for i, method := range []string{http.MethodGet, http.MethodHead} {
				before := srv.Stats()
				resp, body := request(t, method, tc.url, tc.headers)
				moved[i] = statsDelta(before, srv.Stats())
				got[i] = resp
				if resp.StatusCode != tc.status {
					t.Fatalf("%s: %s, want %d", method, resp.Status, tc.status)
				}
				for _, k := range answerHeaders {
					if v := resp.Header.Get(k); v != tc.want[k] {
						t.Errorf("%s: %s %q, want %q", method, k, v, tc.want[k])
					}
				}
				if tc.status/100 != 2 {
					continue
				}
				if resp.ContentLength != tc.length {
					t.Errorf("%s: Content-Length %d, want %d", method, resp.ContentLength, tc.length)
				}
				if want := map[string]int64{http.MethodGet: tc.length, http.MethodHead: 0}[method]; int64(len(body)) != want {
					t.Errorf("%s: %d body bytes, want %d", method, len(body), want)
				}
			}
			get, head := moved[0], moved[1]
			get.BytesServed, get.BytesRead = 0, 0 // what only the GET moves
			if get != tc.moves || head != tc.moves {
				t.Errorf("GET moved %+v, HEAD %+v, want %+v", get, head, tc.moves)
			}
		})
	}

	// A record cut short underfoot: each answer's read fails, and the 500
	// carries no validator a client could revalidate the error with.
	if err := os.Truncate(filepath.Join(dir, re.Name), 16); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{url, pushdown} {
		resp, _ := get(t, u, nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("GET %s of a truncated record: %s, want 500", u, resp.Status)
		}
		for _, k := range []string{"ETag", "Accept-Ranges", "Content-Range", pushdownHeaderName} {
			if v := resp.Header.Get(k); v != "" {
				t.Errorf("GET %s of a truncated record: 500 carries %s %q", u, k, v)
			}
		}
	}
}

// pushdownHeaderName is the header that marks a pushdown answer.
const pushdownHeaderName = "X-Pcr-Pushdown"

// statsDelta is what one request moved of the counters an answer keeps.
func statsDelta(before, after serve.Stats) serve.Stats {
	return serve.Stats{
		Requests:           after.Requests - before.Requests,
		RangeRequests:      after.RangeRequests - before.RangeRequests,
		NotModified:        after.NotModified - before.NotModified,
		Errors:             after.Errors - before.Errors,
		BytesServed:        after.BytesServed - before.BytesServed,
		BytesRead:          after.BytesRead - before.BytesRead,
		PushdownRequests:   after.PushdownRequests - before.PushdownRequests,
		PushdownBytesSaved: after.PushdownBytesSaved - before.PushdownBytesSaved,
	}
}
