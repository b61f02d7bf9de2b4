// Package serve is the remote serving layer: an HTTP server that exposes a
// PCR dataset's record index and byte-range prefix reads, plus the matching
// client Backend (ClusterClient) that lets a reader on another machine run
// the paper's entire read path — quality selection, sequential prefix
// reads, delta cache upgrades (§5) — over a network.
//
// The wire protocol is deliberately tiny and HTTP-native, because the
// paper's central operation maps exactly onto an HTTP Range request:
//
//	GET /index                      → the record index (core.EncodeIndex):
//	                                  record names, sample counts, and the
//	                                  per-scan-group prefix lengths readers
//	                                  plan reads with (§3.2's metadata DB
//	                                  entries). Its ETag, the index
//	                                  fingerprint, is answered with 304.
//	GET /records/{name}             → record bytes. "Range: bytes=a-b" is
//	                                  honored with 206/Content-Range;
//	                                  a past-EOF start yields 416. Each
//	                                  record carries a strong ETag (records
//	                                  are immutable once written).
//	GET /records/{name}?group=g     → the same object truncated to the
//	                                  record's scan-group-g prefix, so a
//	                                  client without the index can still
//	                                  fetch "every image of this record at
//	                                  quality g" in one request. Range
//	                                  applies within the truncated view.
//	                                  g uses the record's own scan-group
//	                                  numbering: group 0 is the metadata-only
//	                                  prefix (no image scans) and groups
//	                                  beyond what the record stores clamp to
//	                                  the whole record. This is NOT the pcr
//	                                  facade's quality scale, where 0 (Full)
//	                                  means best — omit ?group for all bytes.
//	GET /records/{name}?group=g&samples=b
//	                                → sample-level predicate pushdown: only
//	                                  the byte ranges of the samples the
//	                                  base64url bitmap b selects, coalesced
//	                                  and concatenated (see pushdown.go).
//	GET /varz                       → counters as expvar-style JSON.
//	GET /healthz                    → liveness.
//
// A reader that scanned at quality g and wants quality g+k issues a Range
// request starting at its cached prefix length — the server sends only the
// delta bytes, which is the §5 cache-pressure property working end to end.
//
// The server reads record bytes through the pcr reader's tier stack
// (cache.Stack): an LRU of hot record prefixes, where a request that
// extends a cached prefix reads only the delta, over a persistent disk tier
// that keeps prefixes evicted from memory one local read away and survives
// server restarts.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diskcache"
)

// hedgeHeader marks a request a cluster client fired as a hedge against a
// slow owner; the receiving replica counts it (Stats.HedgedRequests), so
// /varz shows hedged load landing where it was re-aimed.
const hedgeHeader = "X-Pcr-Hedge"

// ownerHeader carries the owning member's URL on a 421 Misdirected
// Request, so a client with a stale ring learns where to go without a
// second membership round-trip.
const ownerHeader = "X-Pcr-Owner"

// ClusterConfig makes a Server one member of a sharded, replicated fleet:
// it serves — and admits requests for — only the records the fleet's
// consistent-hash ring places on it (as owner or replica), publishes the
// membership at /cluster, and answers requests for anything else with 421
// Misdirected Request plus the owner's URL. All members must be configured
// with the same member set (Self ∪ Peers) and Replication; ring
// determinism (internal/cluster) then guarantees they agree on placement
// without talking to each other.
type ClusterConfig struct {
	// Self is this server's own member URL as clients reach it
	// (e.g. "http://10.0.0.7:8100"). It is implicitly a member.
	Self string
	// Peers are the other members' URLs.
	Peers []string
	// Replication is the replica count per record, owner included
	// (default 1: ownership only, no redundancy).
	Replication int
}

// Options configure a Server's tier stack (cache.Stack) and its role.
type Options struct {
	// CacheBytes is the byte budget of the memory tier, an LRU of hot
	// record prefixes; a pushdown request gathers its ranges from the
	// prefix through the last one. Zero disables the tier.
	CacheBytes int64
	// Cluster, when set, runs the server as one member of a serving
	// fleet; see ClusterConfig. Nil serves the whole dataset standalone.
	Cluster *ClusterConfig
	// LogRequests logs one line per request (method, path, status,
	// duration) — debugging aid for a fleet member.
	LogRequests bool
	// DiskCacheDir mounts a persistent prefix cache (internal/diskcache)
	// under the memory tier: record bytes evicted from memory are still one
	// local read away instead of one backing-store read away, and survive
	// server restarts. Empty disables the tier. The directory must belong
	// to this server process alone.
	DiskCacheDir string
	// DiskCacheBytes is the disk tier's byte budget (default 4× CacheBytes
	// when a directory is set).
	DiskCacheBytes int64
}

// Stats is a point-in-time snapshot of the server's counters, exposed at
// /varz and via expvar in cmd/pcrserved.
type Stats struct {
	// Requests counts all HTTP requests handled.
	Requests int64 `json:"requests"`
	// RangeRequests counts requests that carried a satisfiable Range.
	RangeRequests int64 `json:"range_requests"`
	// NotModified counts If-None-Match hits answered with 304.
	NotModified int64 `json:"not_modified"`
	// Errors counts requests answered with a 4xx/5xx status.
	Errors int64 `json:"errors"`
	// BytesServed counts record payload bytes written to clients.
	BytesServed int64 `json:"bytes_served"`
	// BytesRead counts the bytes read beneath the memory tier: from the
	// disk tier when one is mounted, else from the backing store. With the
	// memory tier it lags BytesServed on re-reads — the serving-side
	// analogue of the paper's cache-pressure reduction. DiskCache's
	// BytesFetched is the share of it that reached the backing store.
	// Replica pulls are counted in ReplicaPullBytes instead.
	BytesRead int64 `json:"bytes_read"`
	// HedgedRequests counts requests that arrived marked as client
	// hedges (the X-Pcr-Hedge header): tail-latency re-aims that landed
	// on this member.
	HedgedRequests int64 `json:"hedged_requests"`
	// Misdirected counts record requests refused with 421 because the
	// ring places the record on other members (fleet mode only).
	Misdirected int64 `json:"misdirected"`
	// ReplicaPulls and ReplicaPullBytes count replica warm-up reads
	// served by the records' owners during SyncReplicas (fleet mode
	// only).
	ReplicaPulls     int64 `json:"replica_pulls"`
	ReplicaPullBytes int64 `json:"replica_pull_bytes"`
	// PushdownRequests counts sample-selective record reads (?samples=
	// bitmap requests answered with only the selected byte ranges);
	// PushdownBytesSaved accumulates the bytes those responses did NOT
	// move relative to the full group prefix — the serving-side measure of
	// predicate pushdown working.
	PushdownRequests   int64 `json:"pushdown_requests"`
	PushdownBytesSaved int64 `json:"pushdown_bytes_saved"`
	// Cache are the memory tier's counters (zero when disabled).
	Cache cache.Stats `json:"cache"`
	// DiskCache are the persistent disk tier's counters (zero when
	// disabled).
	DiskCache diskcache.Stats `json:"disk_cache"`
}

// Server serves one opened PCR dataset over HTTP. It is an http.Handler;
// all methods are safe for concurrent use.
type Server struct {
	ownsDS  bool
	mux     *http.ServeMux
	logReqs bool
	byName  map[string]int
	index   *core.Index // the whole record index

	indexDoc  []byte
	indexETag string // the index fingerprint, quoted
	etags     []string

	tiers *cache.Stack

	// Fleet state (nil/empty standalone): the placement ring, this
	// member's identity, and the per-record verdicts derived from them.
	ring        *cluster.Ring
	self        string
	replication int
	serves      []bool   // ring places record i on this member
	owner       []string // owning member URL of record i
	clusterJSON []byte
	clusterETag string

	// pulling holds the records SyncReplicas is warming, whose backing
	// reads go to their owners (pull) over peers: the one http.Client for
	// every pull, so a sync costs a connection per owner, not per record.
	pulling sync.Map
	peers   *http.Client

	requests           atomic.Int64
	rangeRequests      atomic.Int64
	notModified        atomic.Int64
	errors             atomic.Int64
	bytesServed        atomic.Int64
	hedgedRequests     atomic.Int64
	misdirected        atomic.Int64
	replicaPulls       atomic.Int64
	replicaPullBytes   atomic.Int64
	pushdownRequests   atomic.Int64
	pushdownBytesSaved atomic.Int64
}

// New opens the PCR dataset directory at dir and serves it. Close releases
// the dataset.
func New(dir string, opts *Options) (*Server, error) {
	ds, err := core.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	s, err := NewFromDataset(ds, opts)
	if err != nil {
		ds.Close()
		return nil, err
	}
	s.ownsDS = true
	return s, nil
}

// NewFromDataset serves an already-opened dataset, which the caller remains
// responsible for closing. With Options.DiskCacheDir set, the dataset's
// storage backend is wrapped in the persistent cache tier in place; the
// wrapper is released by the dataset's own Close.
func NewFromDataset(ds *core.Dataset, opts *Options) (*Server, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	ix := ds.Index()
	indexDoc, err := core.EncodeIndex(ix)
	if err != nil {
		return nil, err
	}
	s := &Server{
		logReqs:   o.LogRequests,
		byName:    make(map[string]int, len(ix.Records)),
		index:     ix,
		indexDoc:  indexDoc,
		indexETag: fmt.Sprintf("%q", core.DocFingerprint(indexDoc)),
	}
	for i, re := range ix.Records {
		s.byName[re.Name] = i
		// Records are immutable once written, so name + full length is a
		// strong validator.
		s.etags = append(s.etags, fmt.Sprintf("%q", fmt.Sprintf("%s-%d", re.Name, re.Prefixes[len(re.Prefixes)-1])))
	}
	budget := o.DiskCacheBytes
	if budget <= 0 {
		if budget = 4 * o.CacheBytes; budget <= 0 {
			budget = 1 << 30
		}
	}
	if s.tiers, err = cache.NewStack(ds, o.CacheBytes, o.DiskCacheDir, budget, s.pull); err != nil {
		return nil, err
	}
	if o.Cluster != nil {
		if err := s.initCluster(o.Cluster); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /index", s.handleIndex)
	s.mux.HandleFunc("GET /records/{name}", s.handleRecord)
	s.mux.HandleFunc("GET /cluster", s.handleCluster)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// initCluster resolves this member's slice of the fleet: the ring over
// Self ∪ Peers, the per-record serve/refuse verdicts, and the frozen
// /cluster document.
func (s *Server) initCluster(cc *ClusterConfig) error {
	if cc.Self == "" {
		return fmt.Errorf("serve: cluster config needs Self (this member's URL)")
	}
	members := append([]string{cc.Self}, cc.Peers...)
	ring, err := cluster.New(members)
	if err != nil {
		return err
	}
	repl := cc.Replication
	if repl <= 0 {
		repl = 1
	}
	if repl > len(ring.Members()) {
		return fmt.Errorf("serve: replication %d exceeds the %d-member fleet", repl, len(ring.Members()))
	}
	s.ring, s.self, s.replication = ring, cc.Self, repl
	s.serves = make([]bool, len(s.index.Records))
	s.owner = make([]string, len(s.index.Records))
	for i, re := range s.index.Records {
		reps := ring.Replicas(re.Name, repl)
		s.owner[i] = reps[0]
		for _, m := range reps {
			if m == cc.Self {
				s.serves[i] = true
				break
			}
		}
	}
	info := cluster.Info{
		Members:     ring.Members(),
		Replication: repl,
		Self:        cc.Self,
		Epoch:       cluster.Epoch(ring.Members(), repl),
	}
	data, err := json.Marshal(info)
	if err != nil {
		return fmt.Errorf("serve: encoding cluster info: %w", err)
	}
	s.clusterJSON = data
	s.clusterETag = fmt.Sprintf("%q", "cl-"+info.Epoch)
	s.peers = newHTTPClient()
	return nil
}

// Close releases the connections to the server's peers, and the dataset when
// the server owns it (constructed with New).
func (s *Server) Close() error {
	if s.peers != nil {
		s.peers.CloseIdleConnections()
	}
	if s.ownsDS {
		return s.tiers.Close()
	}
	return nil
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:           s.requests.Load(),
		RangeRequests:      s.rangeRequests.Load(),
		NotModified:        s.notModified.Load(),
		Errors:             s.errors.Load(),
		BytesServed:        s.bytesServed.Load(),
		BytesRead:          s.tiers.BytesRead(),
		HedgedRequests:     s.hedgedRequests.Load(),
		Misdirected:        s.misdirected.Load(),
		ReplicaPulls:       s.replicaPulls.Load(),
		ReplicaPullBytes:   s.replicaPullBytes.Load(),
		PushdownRequests:   s.pushdownRequests.Load(),
		PushdownBytesSaved: s.pushdownBytesSaved.Load(),
	}
	st.Cache, _ = s.tiers.MemStats()
	st.DiskCache, _ = s.tiers.DiskStats()
	return st
}

// ServeHTTP implements http.Handler: it counts the request (and, fleet
// mode, a request a client marked as a hedge, so /varz shows hedged load
// landing on replicas), hands it to the endpoint mux, counts every 4xx/5xx
// — the mux's own 404/405 for unknown paths and methods included — in
// Errors, and logs one line per request when Options.LogRequests is set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var start time.Time
	if s.logReqs {
		start = time.Now()
	}
	s.requests.Add(1)
	if r.Header.Get(hedgeHeader) != "" {
		s.hedgedRequests.Add(1)
	}
	sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sr, r)
	if sr.code >= 400 {
		s.errors.Add(1)
	}
	if s.logReqs {
		log.Printf("serve: %s %s -> %d (%v)", r.Method, r.URL.RequestURI(), sr.code, time.Since(start).Round(time.Microsecond))
	}
}

// statusRecorder captures the response code ServeHTTP counts and logs: what
// the endpoint, or the mux's own 404/405, wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// fail writes an error status (counted by ServeHTTP's status recorder).
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// handleIndex serves the record index — whole, or one worker's shard view
// (?shard=i&nshards=n: core.Index.Shard, the stride partition a local
// pcr.Open WithShard opens too), so a distributed worker can plan its reads
// from an index proportional to its share of the dataset.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	shard, nshards := 0, 0
	if q := r.URL.Query(); q.Get("shard") != "" || q.Get("nshards") != "" {
		var err1, err2 error
		shard, err1 = strconv.Atoi(q.Get("shard"))
		nshards, err2 = strconv.Atoi(q.Get("nshards"))
		if err1 != nil || err2 != nil || nshards <= 0 || shard < 0 || shard >= nshards {
			s.fail(w, http.StatusBadRequest, "serve: bad shard %q of %q (want 0 <= shard < nshards)",
				q.Get("shard"), q.Get("nshards"))
			return
		}
	}
	// A shard view is a pure function of the immutable index, so its
	// validator derives from the whole-index ETag — a conditional poll is
	// answered with 304 before any encoding work.
	if nshards == 0 {
		s.writeDocument(w, r, s.indexETag, "application/octet-stream", func() ([]byte, error) { return s.indexDoc, nil })
		return
	}
	etag := fmt.Sprintf("%q", fmt.Sprintf("%s-s%d.%d", strings.Trim(s.indexETag, `"`), shard, nshards))
	s.writeDocument(w, r, etag, "application/octet-stream", func() ([]byte, error) { return core.EncodeIndex(s.index.Shard(shard, nshards)) })
}

// handleCluster serves the fleet membership (cluster.Info): member list,
// replication factor, this member's identity, and the placement epoch,
// with an ETag derived from the epoch so clients poll with If-None-Match
// and rebuild their ring only when membership actually moves. A standalone
// server (no ClusterConfig) synthesizes a single-member fleet from the URL
// the client reached it at — so a cluster-aware client speaks one protocol
// to any server, fleet or not.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.ring != nil {
		s.writeDocument(w, r, s.clusterETag, "application/json", func() ([]byte, error) { return s.clusterJSON, nil })
		return
	}
	scheme := "http"
	if r.TLS != nil {
		scheme = "https"
	}
	self := scheme + "://" + r.Host
	info := cluster.Info{
		Members:     []string{self},
		Replication: 1,
		Self:        self,
		Epoch:       cluster.Epoch([]string{self}, 1),
	}
	s.writeDocument(w, r, fmt.Sprintf("%q", "cl-"+info.Epoch), "application/json", func() ([]byte, error) { return json.Marshal(info) })
}

// writeDocument answers a GET or HEAD of a document — /index, the
// core.EncodeIndex wire message, or /cluster, JSON: a counted 304 when the
// request's If-None-Match matches etag (unmodified), else the document
// encode makes — run only then — with its media type ctype and its length.
func (s *Server) writeDocument(w http.ResponseWriter, r *http.Request, etag, ctype string, encode func() ([]byte, error)) {
	if s.unmodified(w, r, etag) {
		return
	}
	body, err := encode()
	if err != nil {
		w.Header().Del("ETag")
		s.fail(w, http.StatusInternalServerError, "serve: %v", err)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method != http.MethodHead {
		w.Write(body)
	}
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// handleRecord serves a record answer: the record's bytes — the whole
// record, a ?group=g prefix view, or a byte range within either
// (serveRange) — or, for a ?samples= bitmap, the selected samples' bytes
// (serveSamples, pushdown.go). Both share the record lookup, the fleet
// admission, the ?group parse and the tail (writeAnswer); each keeps its
// own checks.
func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.byName[name]
	if !ok {
		s.fail(w, http.StatusNotFound, "serve: no record %q", name)
		return
	}
	// Fleet mode: refuse records the ring places elsewhere. 421 (not 404)
	// tells a routing client its ring is stale rather than the record
	// missing, and the owner header points it at the right member without
	// a membership round-trip.
	if s.ring != nil && !s.serves[rec] {
		s.misdirected.Add(1)
		w.Header().Set(ownerHeader, s.owner[rec])
		s.fail(w, http.StatusMisdirectedRequest,
			"serve: record %q belongs to %s (this member is %s)", name, s.owner[rec], s.self)
		return
	}
	re := &s.index.Records[rec]

	// The answer is cut from the record truncated to the requested scan
	// group's prefix (clamped to what the record stores, as every reader
	// clamps); without ?group it is the whole record file. Scan-group
	// numbering is the record's own: group 0 is the metadata-only prefix,
	// not the facade's "Full".
	query := r.URL.Query()
	gs := query.Get("group")
	g := len(re.Prefixes) - 1
	if gs != "" {
		n, err := strconv.Atoi(gs)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "serve: bad group %q", gs)
			return
		}
		g = re.ClampGroup(n)
	}
	if bitmap := query.Get("samples"); bitmap != "" {
		if gs == "" {
			s.fail(w, http.StatusBadRequest, "serve: samples requires a group")
			return
		}
		s.serveSamples(w, r, rec, g, bitmap)
		return
	}
	s.serveRange(w, r, rec, re.Prefixes[g])
}

// serveRange answers a record request without a selection: the size-byte
// object, or the window of it a Range header asks for.
func (s *Server) serveRange(w http.ResponseWriter, r *http.Request, rec int, size int64) {
	w.Header().Set("Accept-Ranges", "bytes")
	if s.unmodified(w, r, s.etags[rec]) {
		return
	}
	start, length, status := resolveRange(r.Header.Get("Range"), size)
	switch status {
	case http.StatusRequestedRangeNotSatisfiable:
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		s.fail(w, status, "serve: unsatisfiable range %q for %d-byte object", r.Header.Get("Range"), size)
		return
	case http.StatusPartialContent:
		s.rangeRequests.Add(1)
	}
	s.writeAnswer(w, r, status, length,
		func() ([]byte, error) { return s.tiers.Read(rec, start, length) },
		func(h http.Header) {
			if status == http.StatusPartialContent {
				h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size))
			}
		})
}

// writeAnswer is the tail of every record answer, once the answer's own
// checks and the conditional step have passed. It reads the body before
// any success header — not for a HEAD — so a backing failure (record
// deleted or truncated underfoot) is a clean 500 with no validator
// attached; a read that panics — a store that does — is such a failure,
// not a dropped connection. Then commit adds the answer's own headers and
// counters beside
// its type and length, and a GET gets the body: counted in bytes_served
// first, since once Write hands the bytes to the connection a client can
// read them and ask for Stats or /varz and must find its body counted (a
// short write takes the unsent remainder back off), then handed back to
// the tier stack.
func (s *Server) writeAnswer(w http.ResponseWriter, r *http.Request, status int, length int64, read func() ([]byte, error), commit func(http.Header)) {
	head := r.Method == http.MethodHead
	var body []byte
	if !head {
		var err error
		if body, err = readGuarded(read); err != nil {
			w.Header().Del("ETag")
			w.Header().Del("Accept-Ranges")
			s.fail(w, http.StatusInternalServerError, "serve: %v", err)
			return
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(length, 10))
	commit(h)
	w.WriteHeader(status)
	if head {
		return
	}
	s.bytesServed.Add(int64(len(body)))
	if n, _ := w.Write(body); n < len(body) {
		s.bytesServed.Add(int64(n - len(body)))
	}
	s.tiers.Release(body)
}

// readGuarded is read, with a panic in it returned as an error.
func readGuarded(read func() ([]byte, error)) (body []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			body, err = nil, fmt.Errorf("read panicked: %v", v)
		}
	}()
	return read()
}

// errNotPulling is pull declining a read: no sync is warming the record.
var errNotPulling = errors.New("serve: record not being pulled")

// pull is the tier stack's backing fetch. While SyncReplicas is warming a
// replicated record, it reads the record from its owner over HTTP — one
// attempt; on any error the stack reads the backing store instead — so a
// replica fills from the member that most likely has the bytes hot instead
// of hammering cold storage.
func (s *Server) pull(rec int, offset, length int64) ([]byte, error) {
	if _, ok := s.pulling.Load(rec); !ok {
		return nil, errNotPulling
	}
	m, err := newMember(s.owner[rec], s.peers)
	if err != nil {
		return nil, err
	}
	data, _, err := m.readRangeOnce(nil, s.index.Records[rec].Name, offset, length, false)
	if err != nil {
		return nil, err
	}
	s.replicaPulls.Add(1)
	s.replicaPullBytes.Add(int64(len(data)))
	return data, nil
}

// SyncReplicas warms this member's hot cache with every record the ring
// assigns it as a non-owning replica, pulling the bytes from each record's
// owner over HTTP — the fleet's replication-on-sync step. The owner has
// (or will then have) the record hot, so a rolling restart re-warms
// replicas peer-to-peer instead of stampeding the backing store; an
// unreachable owner silently degrades to a backing-store read. Requires
// the hot cache (Options.CacheBytes) and fleet mode; otherwise a no-op.
// Best-effort: the first error cancels nothing, and the method reports how
// many records were warmed.
func (s *Server) SyncReplicas(ctx context.Context) (warmed int, err error) {
	if _, mem := s.tiers.MemStats(); s.ring == nil || !mem {
		return 0, nil
	}
	var firstErr error
	for rec := range s.index.Records {
		if !s.serves[rec] || s.owner[rec] == s.self {
			continue
		}
		if err := ctx.Err(); err != nil {
			return warmed, err
		}
		size := s.index.Records[rec].Prefixes[len(s.index.Records[rec].Prefixes)-1]
		s.pulling.Store(rec, nil)
		b, gerr := s.tiers.Read(rec, 0, size)
		s.pulling.Delete(rec)
		if gerr != nil {
			if firstErr == nil {
				firstErr = gerr
			}
			continue
		}
		s.tiers.Release(b)
		warmed++
	}
	return warmed, firstErr
}

// unmodified is the one conditional step of every response that carries
// an entity tag: it sets the ETag header and, when the request's
// If-None-Match matches etag (weak comparison over a list, per RFC 9110
// §13.1.2), answers 304, counts it, and reports true.
func (s *Server) unmodified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	h := r.Header.Get("If-None-Match")
	if h == "" {
		return false
	}
	for _, part := range strings.Split(h, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || part == etag {
			s.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// resolveRange interprets a Range header against an object of the given
// size, per RFC 9110 §14. It returns the byte window to serve and the HTTP
// status to serve it with:
//
//   - no header, a malformed header, or a multi-part range → the whole
//     object with 200 (an invalid Range header is ignored, and a server
//     MAY ignore multi-part ranges);
//   - "bytes=a-b", "bytes=a-", "bytes=-n" → the clamped window with 206;
//     a last-byte-pos or suffix-length too large to represent clamps to
//     the object (§14.1.1: recipients must handle out-of-range values);
//   - a start at or past EOF (including a first-byte-pos that overflows
//     int64), an empty suffix ("bytes=-0"), or any range against an empty
//     object → 416 (no byte range is satisfiable when the selected
//     representation is empty, and 206 could not carry a well-formed
//     Content-Range for it).
//
// Whitespace around the range bounds is tolerated even though the grammar
// does not produce it (generous-recipient leniency; OWS is only valid
// around commas in a range set).
func resolveRange(header string, size int64) (start, length int64, status int) {
	full := func() (int64, int64, int) { return 0, size, http.StatusOK }
	notSatisfiable := func() (int64, int64, int) { return 0, 0, http.StatusRequestedRangeNotSatisfiable }
	if header == "" {
		return full()
	}
	spec, ok := strings.CutPrefix(header, "bytes=")
	if !ok || strings.Contains(spec, ",") {
		return full()
	}
	first, last, ok := strings.Cut(spec, "-")
	if !ok {
		return full()
	}
	first, last = strings.TrimSpace(first), strings.TrimSpace(last)
	if !digits(first) || !digits(last) {
		return full() // a sign, or anything else but 1*DIGIT
	}
	if first == "" {
		// Suffix form: the final n bytes.
		n, err := strconv.ParseInt(last, 10, 64)
		if overflowed(err) {
			n = size // longer than the representation: entire object
		} else if err != nil {
			return full()
		}
		if n == 0 || size == 0 {
			return notSatisfiable()
		}
		if n > size {
			n = size
		}
		return size - n, n, http.StatusPartialContent
	}
	a, err := strconv.ParseInt(first, 10, 64)
	if overflowed(err) {
		return notSatisfiable() // a first-byte-pos past any object is past EOF
	}
	if err != nil {
		return full()
	}
	if a >= size {
		return notSatisfiable()
	}
	end := size - 1
	if last != "" {
		b, err := strconv.ParseInt(last, 10, 64)
		if overflowed(err) {
			b = end // larger than the representation: clamp, don't ignore
		} else if err != nil {
			return full()
		}
		if b < a {
			return full()
		}
		if b < end {
			end = b
		}
	}
	return a, end - a + 1, http.StatusPartialContent
}

// digits reports whether s is empty or ASCII digits only: the grammar of a
// range bound is 1*DIGIT, and strconv.ParseInt would also take a sign.
func digits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// overflowed reports whether a ParseInt failure was a syntactically valid
// number too large for int64 — which RFC 9110 treats as a value past any
// real object, not as a malformed header.
func overflowed(err error) bool {
	return errors.Is(err, strconv.ErrRange)
}
