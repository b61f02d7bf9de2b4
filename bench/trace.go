package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Span names: <module>.<call>. The per-layer time budget sums self time per
// name, so every name here is one row of that budget.
const (
	spanBackingRead  = "core.backing_read"       // DirBackend.ReadRange
	spanMetaParse    = "core.meta_parse"         // core.ParseRecordMeta
	spanReassembly   = "core.reassembly"         // RecordMeta.SampleJPEG over a record
	spanSampleRanges = "core.sample_ranges"      // Dataset.SampleRanges
	spanScatter      = "core.scatter"            // core.ScatterRanges
	spanWriteRecord  = "core.write_record"       // core.WriteRecordOpts into the record file
	spanDecode       = "jpegc.decode"            // jpegc.Decode
	spanTranscode    = "jpegc.transcode"         // jpegc.Transcode
	spanCacheGet     = "cache.get"               // cache.Cache.Get
	spanDiskRead     = "diskcache.read"          // diskcache.Backend.ReadRange
	spanDiskOpen     = "diskcache.open"          // diskcache.Wrap: lock, journal replay, verification
	spanDiskClose    = "diskcache.close"         // Dataset.Close over the disk tier and its client
	spanHandle       = "serve.handle"            // Server.ServeHTTP, /records prefix reads
	spanHandlePush   = "serve.handle_pushdown"   // Server.ServeHTTP, ?samples= reads
	spanHandleIndex  = "serve.handle_index"      // Server.ServeHTTP, /index: once per remote open
	spanClientRange  = "serve.client_read_range" // ClusterClient.ReadRange
	spanClientSample = "serve.client_read_samples"
	spanFetchIndex   = "serve.client_fetch_index" // NewClusterClient + FetchIndex
	spanKVPut        = "kvstore.put"              // Store.Put
)

// tracer keeps spans in memory. Spans on the same record nest by time: a
// span opened while another span of that record is open is its child, which
// links a client read to the server handler and the backing read beneath it
// without passing anything over the wire. The benchmark never has two
// operations on one record in flight at once, so the nesting is exact.
type tracer struct {
	t0    time.Time
	round string // "<workload>/<round>", the prefix of every span id

	mu    sync.Mutex
	spans []span
	open  map[string][]int // record → stack of its open spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[string][]int)}
}

// start opens a span on a record and nests it under that record's innermost
// open span. A nil tracer records nothing.
func (t *tracer) start(name, record string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[record]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: t.round + "/" + record, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.open[record] = append(t.open[record], i)
	return i
}

// end closes the span start returned.
func (t *tracer) end(i int, record string) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	// Not always the top of the stack: a client has the whole reply, and
	// closes its span, a moment before the server's handler returns.
	st := t.open[record]
	for k := len(st) - 1; k >= 0; k-- {
		if st[k] == i {
			t.open[record] = append(st[:k], st[k+1:]...)
			break
		}
	}
}

// leaf records a finished root span that nests nothing — the per-image
// decodes, which run concurrently with each other on one record.
func (t *tracer) leaf(name, record string, begin time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: t.round + "/" + record, Parent: -1,
		Start: int64(begin.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) setRound(workload string, round int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.round = workload + "/" + strconv.Itoa(round)
}

// mark returns the number of spans recorded so far.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns the spans recorded after mark, with their parent indexes
// rebased to the returned slice.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans[mark:]...)
	for i := range out {
		out[i].Parent = max(out[i].Parent-mark, -1)
	}
	return out
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend records a span around every ReadRange of the Backend it
// wraps. It is the only way a layer below a public API gets timed without
// editing that layer: the dataset, cache or server above is handed the
// wrapper in place of the real backend.
type timedBackend struct {
	inner core.Backend
	tr    *tracer
	name  string
}

func (b *timedBackend) Open(name string) (io.ReadCloser, error) { return b.inner.Open(name) }
func (b *timedBackend) List() ([]string, error)                 { return b.inner.List() }
func (b *timedBackend) Close() error                            { return b.inner.Close() }

func (b *timedBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
	i := b.tr.start(b.name, name)
	data, err := b.inner.ReadRange(name, offset, length)
	b.tr.end(i, name)
	return data, err
}

// timedClient is timedBackend over the remote client, which can also read a
// sample selection in one request.
type timedClient struct {
	timedBackend
	samples core.SampleReader
}

func (c *timedClient) ReadSamples(name string, group int, sel []bool) ([]byte, error) {
	i := c.tr.start(spanClientSample, name)
	data, err := c.samples.ReadSamples(name, group, sel)
	c.tr.end(i, name)
	return data, err
}

// timedHandler records a span around every record and index request the
// server handles, named by the kind of request.
func timedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		record, ok := strings.CutPrefix(r.URL.Path, "/records/")
		name := spanHandle
		switch {
		case r.URL.Path == "/index":
			record, name = "index", spanHandleIndex
		case !ok:
			next.ServeHTTP(w, r)
			return
		case r.URL.Query().Has("samples"):
			name = spanHandlePush
		}
		i := tr.start(name, record)
		next.ServeHTTP(w, r)
		tr.end(i, record)
	})
}
