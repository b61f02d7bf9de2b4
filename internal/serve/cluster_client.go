package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Cluster-client tuning knobs. Hedge delays derive from the observed read
// latency distribution (see hedgeDelay); the down-member TTL bounds how
// long a dead member keeps absorbing first-attempt connection failures
// before the client stops preferring it.
const (
	// defaultHedgeFloor is the minimum hedge delay when the caller sets
	// none: local fleets complete reads in well under this, so hedging
	// stays dormant until the tail genuinely misbehaves.
	defaultHedgeFloor = 25 * time.Millisecond
	// latencyWindow is how many recent successful read durations feed the
	// hedge-delay quantiles.
	latencyWindow = 64
	// downTTL is how long a member that failed a read is deprioritized
	// before the client gives it another first-choice chance.
	downTTL = 2 * time.Second
	// maxClusterDocBytes and maxClusterMembers bound a /cluster document
	// before the client builds a ring of cluster.DefaultVirtualNodes points
	// per listed member from it; unbounded, 10⁶ member URLs would cost
	// about 2 GB.
	maxClusterDocBytes = 1 << 20
	maxClusterMembers  = 1024
)

// ClusterStats snapshots a ClusterClient's fleet counters.
type ClusterStats struct {
	// Hedges counts backup requests fired because the first replica
	// exceeded the hedge delay; HedgeWins counts hedges whose response
	// was used.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Failovers counts reads, the index fetch among them, that abandoned
	// one member for the next after a transient failure.
	Failovers int64 `json:"failovers"`
	// Refreshes counts membership re-resolutions (/cluster re-fetches
	// after a member died or a server reported the ring stale).
	Refreshes int64 `json:"refreshes"`
	// Misdirects counts 421 responses — a member that disagreed with
	// this client's ring about a record's placement.
	Misdirects int64 `json:"misdirects"`
}

// ClusterClient is the read side of the wire protocol: a core.Backend (and
// core.SampleReader) over one prefix server or a sharded, replicated fleet
// of them. Plugged into core.OpenDatasetIndex it gives a remote reader the
// exact local read path — sequential prefix reads become single Range
// requests, and the LRU prefix cache's delta upgrades (§5) become Range
// requests for only the missing bytes. It bootstraps membership from any
// seed's /cluster endpoint, rebuilds the same consistent-hash ring every
// server uses (placement is deterministic, so no coordination is needed),
// and routes every record read to the record's owner. Every read runs the
// one failover loop (readReplicas): a member that dies mid-scan costs a
// move to the surviving replicas and a membership re-resolution, so a scan
// or training epoch keeps streaming through a server kill as long as each
// record retains one live replica. Tail latency is hedged: a range read
// that exceeds a p99-derived delay is re-sent to the next replica and the
// first response wins.
//
// A standalone (non-fleet) server is the one-member case: its /cluster
// synthesizes a single-member fleet, the ring routes everything there, and
// hedging never has a second replica to aim at.
type ClusterClient struct {
	seeds []*member
	hc    *http.Client
	// ownsHC marks hc as made here (no caller-supplied client): Close shuts
	// its idle connections down.
	ownsHC bool

	// hedgeFloor is the minimum hedge delay; negative disables hedging.
	hedgeFloor time.Duration

	mu      sync.Mutex
	fleet   *fleet               // nil until first resolved
	down    map[string]time.Time // member URL -> down-until
	idx     *core.Index
	byName  map[string]int // lazy name → idx.Records index (ReadSamples)
	shard   int
	nshards int // 0 = whole index

	latMu sync.Mutex
	lats  []time.Duration // ring buffer of recent successful read durations
	latIx int

	hedges     atomic.Int64
	hedgeWins  atomic.Int64
	failovers  atomic.Int64
	refreshes  atomic.Int64
	misdirects atomic.Int64
}

// fleet is one resolved membership: the /cluster document, the ring built
// from it, and the transport to each member.
type fleet struct {
	info    *cluster.Info
	ring    *cluster.Ring
	members map[string]*member // by the URL the ring names them with
}

// NewClusterClient returns a client bootstrapped from the given seed URLs
// (a standalone server's, or any member's of a fleet; one is enough — the
// rest of the membership comes from /cluster). A nil httpClient gets a
// default with bounded dial, header and request timeouts; pass an explicit
// client to change the limits. Membership is fetched lazily on the first
// read or FetchIndex, so constructing a client does not require a live
// fleet.
func NewClusterClient(seedURLs []string, httpClient *http.Client) (*ClusterClient, error) {
	if len(seedURLs) == 0 {
		return nil, fmt.Errorf("serve: cluster client needs at least one seed URL")
	}
	c := &ClusterClient{hc: httpClient, ownsHC: httpClient == nil, down: make(map[string]time.Time)}
	if c.ownsHC {
		c.hc = newHTTPClient()
	}
	for _, s := range seedURLs {
		m, err := newMember(s, c.hc)
		if err != nil {
			return nil, err
		}
		c.seeds = append(c.seeds, m)
	}
	return c, nil
}

// SetHedgeDelay sets the hedge delay floor: a read hedges to the next
// replica when its first attempt has been in flight for
// max(floor, p99-derived delay). Zero restores the default floor; a
// negative value disables hedging entirely (reads still fail over on
// errors — hedging only concerns slowness, not failure).
func (c *ClusterClient) SetHedgeDelay(floor time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hedgeFloor = floor
}

// SetShard restricts the client to stride shard index-of-count of the
// dataset: FetchIndex downloads only the shard view
// (GET /index?shard=i&nshards=n), so a distributed worker's index transfer
// — and everything planned from it — is proportional to its share of the
// dataset. Must be called before the first FetchIndex; the served shard
// view is core.Index.Shard(index, count), records r with r % count ==
// index — the view a local pcr.Open WithShard opens too. A count below 1
// asks for the whole index; the server refuses any other shard out of
// range, and FetchIndex reports it.
func (c *ClusterClient) SetShard(index, count int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx != nil {
		return fmt.Errorf("serve: SetShard after the index was fetched")
	}
	c.shard, c.nshards = index, count
	return nil
}

// Stats snapshots the client's fleet counters.
func (c *ClusterClient) Stats() ClusterStats {
	return ClusterStats{
		Hedges:     c.hedges.Load(),
		HedgeWins:  c.hedgeWins.Load(),
		Failovers:  c.failovers.Load(),
		Refreshes:  c.refreshes.Load(),
		Misdirects: c.misdirects.Load(),
	}
}

// membership returns the cached fleet, bootstrapping from the seeds on first
// use.
func (c *ClusterClient) membership() (*fleet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fleet != nil {
		return c.fleet, nil
	}
	return c.resolveMembershipLocked(c.seeds)
}

// refreshMembership re-resolves the fleet membership — called after a
// member died or reported the client's ring stale. Known members and the
// original seeds are all candidate sources, so the refresh succeeds as
// long as anyone is alive; when nobody answers the stale fleet stays, since
// routing against yesterday's membership plus failover beats not routing
// at all.
func (c *ClusterClient) refreshMembership() {
	c.mu.Lock()
	defer c.mu.Unlock()
	sources := c.seeds
	if c.fleet != nil {
		sources = nil
		for _, u := range c.fleet.info.Members {
			sources = append(sources, c.fleet.members[u])
		}
		sources = append(sources, c.seeds...)
	}
	if _, err := c.resolveMembershipLocked(sources); err == nil {
		c.refreshes.Add(1)
	}
}

// newFleet builds the ring and the member transports a /cluster document
// describes; a member URL that is not one makes the document unusable.
func newFleet(info *cluster.Info, hc *http.Client) (*fleet, error) {
	ring, err := cluster.New(info.Members)
	if err != nil {
		return nil, err
	}
	f := &fleet{info: info, ring: ring, members: make(map[string]*member, len(info.Members))}
	for _, u := range info.Members {
		if f.members[u], err = newMember(u, hc); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// resolveMembershipLocked fetches /cluster from the first responsive source
// whose document makes a fleet, and installs it. Caller holds c.mu.
func (c *ClusterClient) resolveMembershipLocked(sources []*member) (*fleet, error) {
	var lastErr error
	tried := make(map[string]bool, len(sources))
	for _, src := range sources {
		if tried[src.base] {
			continue
		}
		tried[src.base] = true
		info, err := src.clusterInfo()
		if err == nil {
			var f *fleet
			if f, err = newFleet(info, c.hc); err == nil {
				c.fleet = f
				return f, nil
			}
		}
		lastErr = err
	}
	return nil, fmt.Errorf("serve: no cluster member reachable: %w", lastErr)
}

// clusterInfo reads the member's /cluster document.
func (m *member) clusterInfo() (*cluster.Info, error) {
	data, _, err := m.document("/cluster", "membership from "+m.base, maxClusterDocBytes)
	if err != nil {
		return nil, err
	}
	info, err := parseClusterInfo(data)
	if err != nil {
		return nil, fmt.Errorf("serve: membership from %s: %w", m.base, err)
	}
	return info, nil
}

// parseClusterInfo decodes a /cluster document, refusing one past
// maxClusterDocBytes, or listing no members or more than maxClusterMembers.
// A replication factor below 1 means no replication.
func parseClusterInfo(data []byte) (*cluster.Info, error) {
	if len(data) > maxClusterDocBytes {
		return nil, fmt.Errorf("cluster document over %d bytes", maxClusterDocBytes)
	}
	var info cluster.Info
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, err
	}
	if len(info.Members) == 0 {
		return nil, errors.New("empty fleet")
	}
	if len(info.Members) > maxClusterMembers {
		return nil, fmt.Errorf("%d members, more than %d", len(info.Members), maxClusterMembers)
	}
	if info.Replication <= 0 {
		info.Replication = 1
	}
	return &info, nil
}

// markDown deprioritizes a member for downTTL after a failed read, so a
// dead member stops absorbing every record's first attempt. It is only a
// preference: if every replica of a record is marked down, reads still try
// them all.
func (c *ClusterClient) markDown(m *member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down[m.url] = time.Now().Add(downTTL)
}

// preferLive returns the members place picks from the current fleet in
// preference order: place's order, with members recently marked down moved
// to the back (their relative order preserved).
func (c *ClusterClient) preferLive(place func(*fleet) []string) ([]*member, error) {
	f, err := c.membership()
	if err != nil {
		return nil, err
	}
	reps := place(f)
	c.mu.Lock()
	now := time.Now()
	live := make([]*member, 0, len(reps))
	var dead []*member
	for _, u := range reps {
		if until, ok := c.down[u]; ok && now.Before(until) {
			dead = append(dead, f.members[u])
		} else {
			live = append(live, f.members[u])
		}
	}
	c.mu.Unlock()
	return append(live, dead...), nil
}

// observeLatency records one successful read's duration for the hedge
// quantiles.
func (c *ClusterClient) observeLatency(d time.Duration) {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if len(c.lats) < latencyWindow {
		c.lats = append(c.lats, d)
		return
	}
	c.lats[c.latIx] = d
	c.latIx = (c.latIx + 1) % latencyWindow
}

// hedgeDelay derives the backup-request delay from recent read latencies:
// max(floor, min(p99, 5×p50)). The p99 term makes hedging a tail
// phenomenon — at most ~1% of healthy reads pay a redundant request — and
// the 5×p50 clamp keeps the delay anchored to the healthy members' speed
// when one slow member would otherwise drag p99 (and with it the trigger
// threshold) up to its own latency, which would turn hedging off exactly
// when it is needed. ok is false when hedging is disabled.
func (c *ClusterClient) hedgeDelay() (time.Duration, bool) {
	c.mu.Lock()
	floor := c.hedgeFloor
	c.mu.Unlock()
	if floor < 0 {
		return 0, false
	}
	if floor == 0 {
		floor = defaultHedgeFloor
	}
	c.latMu.Lock()
	lats := append([]time.Duration(nil), c.lats...)
	c.latMu.Unlock()
	if len(lats) < 8 {
		return floor, true
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[(len(lats)*99+99)/100-1]
	d := p99
	if clamp := 5 * p50; clamp < d {
		d = clamp
	}
	if d < floor {
		d = floor
	}
	return d, true
}

// replicasOf places the named record: its replica set, owner first.
type replicasOf string

func (name replicasOf) place(f *fleet) []string {
	return f.ring.Replicas(string(name), f.info.Replication)
}

// everyMember places the index, which every member serves.
func everyMember(f *fleet) []string { return f.info.Members }

// readReplicas is the one failover loop, behind ReadRange, ReadSamples,
// Open and FetchIndex alike: up to retryAttempts passes over the members
// place picks (preferLive) — a record's replica set, owner first, or every
// member for the index — backing off and re-resolving membership between
// passes (a whole set failed: the fleet may have changed under us). try is
// one attempt against reps[i] and classifies its own failure. A structural
// error — 416/404, a samples answer without the pushdown header: the index
// promising what no member has — fails the read at once. A 421 (placement
// disagreement) refreshes membership and moves on. Anything else retryable
// marks the member down and moves on.
func readReplicas[T any](c *ClusterClient, place func(*fleet) []string, try func(i int, reps []*member) (T, bool, error)) (T, error) {
	var none T
	var lastErr error
	for round := 0; round < retryAttempts; round++ {
		if round > 0 {
			time.Sleep(retryDelay(round - 1))
			c.refreshMembership()
		}
		reps, err := c.preferLive(place)
		if err != nil {
			lastErr = err
			continue
		}
		for i := range reps {
			if i > 0 {
				c.failovers.Add(1)
			}
			v, retryable, err := try(i, reps)
			if err == nil {
				return v, nil
			}
			var mis *misdirectedError
			if errors.As(err, &mis) {
				c.misdirects.Add(1)
				c.refreshMembership()
			} else if !retryable {
				return none, err
			} else {
				c.markDown(reps[i])
			}
			lastErr = err
		}
	}
	return none, lastErr
}

// ReadRange reads [offset, offset+length) of the named record from its
// replica set into a new buffer (see ReadRangeInto).
func (c *ClusterClient) ReadRange(name string, offset, length int64) ([]byte, error) {
	return c.ReadRangeInto(nil, name, offset, length)
}

var _ core.RangeReaderInto = (*ClusterClient)(nil)

// ReadRangeInto reads [offset, offset+length) of the named record from its
// replica set (see readReplicas), hedging each pass's first attempt to the
// next replica past the hedge delay. Only an attempt that is not hedged
// reads into dst, retries one after another: the losing request of a
// hedged pair may still be writing when the winner returns, so both
// requests of a pair read into buffers of their own.
func (c *ClusterClient) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	if length == 0 {
		return dst[:0], nil
	}
	if length < 0 {
		return nil, fmt.Errorf("serve: negative range length %d for %s", length, name)
	}
	return readReplicas(c, replicasOf(name).place, func(i int, reps []*member) ([]byte, bool, error) {
		if i == 0 && len(reps) > 1 {
			return c.hedgedRead(dst, reps[0], reps[1], name, offset, length)
		}
		return c.readFromMember(func() ([]byte, bool, error) {
			return reps[i].readRangeOnce(dst, name, offset, length, false)
		})
	})
}

// readFromMember is one record read against one member — read, a range or
// a pushdown request — with its latency recorded on success for the hedge
// quantiles.
func (c *ClusterClient) readFromMember(read func() ([]byte, bool, error)) ([]byte, bool, error) {
	start := time.Now()
	buf, retryable, err := read()
	if err == nil {
		c.observeLatency(time.Since(start))
	}
	return buf, retryable, err
}

// hedgedRead reads from the primary replica, firing one backup request at
// the next replica if the primary has not answered within the hedge delay;
// the first success wins. A structural error (416/404) from EITHER
// request fails the read immediately — the index promised bytes the fleet
// does not have, and asking another member cannot change that. Transient
// errors wait for the other request before giving up. With hedging off
// the read is the primary's alone and goes into dst; a hedged pair never
// touches dst.
func (c *ClusterClient) hedgedRead(dst []byte, primary, backup *member, name string, offset, length int64) ([]byte, bool, error) {
	delay, hedgeOK := c.hedgeDelay()
	if !hedgeOK {
		return c.readFromMember(func() ([]byte, bool, error) {
			return primary.readRangeOnce(dst, name, offset, length, false)
		})
	}

	type result struct {
		member    *member
		buf       []byte
		retryable bool
		err       error
	}
	resc := make(chan result, 2)
	attempt := func(m *member, hedge bool) {
		buf, retryable, err := c.readFromMember(func() ([]byte, bool, error) {
			return m.readRangeOnce(nil, name, offset, length, hedge)
		})
		resc <- result{member: m, buf: buf, retryable: retryable, err: err}
	}
	go attempt(primary, false)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	inFlight := 1
	hedged := false
	var lastErr error
	lastRetryable := true
	for inFlight > 0 {
		select {
		case res := <-resc:
			inFlight--
			if res.err == nil {
				if res.member == backup {
					c.hedgeWins.Add(1)
				}
				return res.buf, false, nil
			}
			var mis *misdirectedError
			if !res.retryable && !errors.As(res.err, &mis) {
				// Structural: fail the whole read now. The other request
				// (if any) drains into the buffered channel and is
				// discarded.
				return nil, false, res.err
			}
			lastErr, lastRetryable = res.err, res.retryable
		case <-timer.C:
			if !hedged {
				hedged = true
				c.hedges.Add(1)
				inFlight++
				go attempt(backup, true)
			}
		}
	}
	return nil, lastRetryable, lastErr
}

// ReadSamples implements core.SampleReader: one pushdown request for the
// samples sel selects, sent to the record's replica set (see readReplicas)
// and not hedged — pushdown responses are already the small, selected
// fraction of a record, so the tail-latency machinery buys little against
// the added duplicate bytes.
var _ core.SampleReader = (*ClusterClient)(nil)

func (c *ClusterClient) ReadSamples(name string, group int, sel []bool) ([]byte, error) {
	return c.ReadSamplesInto(nil, name, group, sel)
}

var _ core.SampleReaderInto = (*ClusterClient)(nil)

// ReadSamplesInto is ReadSamples into dst when it has room
// (core.SampleReaderInto). The attempts run one after another, so each may
// read into dst.
func (c *ClusterClient) ReadSamplesInto(dst []byte, name string, group int, sel []bool) ([]byte, error) {
	re, err := c.recordInfoFor(name)
	if err != nil {
		return nil, err
	}
	return readReplicas(c, replicasOf(name).place, func(i int, reps []*member) ([]byte, bool, error) {
		return c.readFromMember(func() ([]byte, bool, error) { return reps[i].readSamplesOnce(dst, re, group, sel) })
	})
}

// recordInfoFor resolves a record name against the cached index, fetching
// the index on first use.
func (c *ClusterClient) recordInfoFor(name string) (*core.RecordInfo, error) {
	ix, err := c.FetchIndex()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byName == nil {
		c.byName = make(map[string]int, len(ix.Records))
		for i, re := range ix.Records {
			c.byName[re.Name] = i
		}
	}
	i, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("serve: no record %q in the index", name)
	}
	return &ix.Records[i], nil
}

// Open streams the whole named record from its replica set (see
// readReplicas; no hedging: the body is handed to the caller as soon as
// headers arrive, so there is no in-flight wait to hedge against). Once the
// body is streaming it belongs to the caller, so a mid-stream failure
// surfaces as a read error there — record readers use ReadRange, which
// retries the whole window.
func (c *ClusterClient) Open(name string) (io.ReadCloser, error) {
	return readReplicas(c, replicasOf(name).place, func(i int, reps []*member) (io.ReadCloser, bool, error) { return reps[i].openOnce(name) })
}

// FetchIndex retrieves and caches the dataset's record index (the shard
// view when SetShard was called) through the one failover loop over every
// member: the index is identical fleet-wide, so the first member to answer
// wins. The body is bounded by maxIndexBytes.
func (c *ClusterClient) FetchIndex() (*core.Index, error) {
	c.mu.Lock()
	ix, shard, nshards := c.idx, c.shard, c.nshards
	c.mu.Unlock()
	if ix != nil {
		return ix, nil
	}
	path := "/index"
	if nshards > 0 {
		path = fmt.Sprintf("/index?shard=%d&nshards=%d", shard, nshards)
	}
	ix, err := readReplicas(c, everyMember, func(i int, reps []*member) (*core.Index, bool, error) {
		data, retryable, err := reps[i].document(path, "the index", maxIndexBytes)
		if err != nil {
			return nil, retryable, err
		}
		ix, err := core.ParseIndex(data)
		return ix, false, err
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.idx = ix
	c.mu.Unlock()
	return ix, nil
}

// List returns the record object names from the index.
func (c *ClusterClient) List() ([]string, error) {
	ix, err := c.FetchIndex()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ix.Records))
	for _, re := range ix.Records {
		names = append(names, re.Name)
	}
	return names, nil
}

// Close releases the client: the default transport's idle connections are
// shut down; a caller-supplied http.Client is left untouched.
func (c *ClusterClient) Close() error {
	if c.ownsHC {
		c.hc.CloseIdleConnections()
	}
	return nil
}
