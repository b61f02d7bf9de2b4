package serve

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Retry policy for the client's idempotent GETs (index, record, range
// reads): a mid-epoch connection reset or truncated response body must not
// abort a whole training epoch, so each read gets a small bounded budget of
// attempts with jittered exponential backoff. Per-attempt limits are the
// http.Client's own timeouts, so the worst case stays bounded.
const (
	retryAttempts  = 3
	retryBaseDelay = 50 * time.Millisecond
)

// retryDelay returns the backoff before retry attempt i (0-based): the
// exponential base delay plus up to one base-delay unit of jitter, so
// concurrent workers that failed together do not retry in lockstep.
func retryDelay(attempt int) time.Duration {
	d := retryBaseDelay << attempt
	return d + time.Duration(rand.Int63n(int64(d)))
}

// drainClose consumes what remains of a response body (up to a small cap
// — error bodies are short) and closes it, so the transport can return
// the connection to the idle pool instead of tearing it down. Closing an
// unread body kills the connection; in a retry loop that is a fresh TCP
// and TLS handshake per attempt, exactly when the server is struggling.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4<<10))
	body.Close()
}

// retryableStatus reports whether a response status is worth retrying: the
// transient server-side 5xx family. Client errors (404, 416) are
// deterministic and fail immediately.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Client is the read side of the wire protocol: a core.Backend whose
// objects are the records of a remote prefix server. Plugged into
// core.OpenDatasetIndex it gives a remote reader the exact local read path
// — sequential prefix reads become single Range requests, and the LRU
// prefix cache's delta upgrades (§5) become Range requests for only the
// missing bytes.
type Client struct {
	base string // normalized base URL, no trailing slash
	hc   *http.Client
	// ownedTransport is the transport built for the default client; Close
	// shuts its idle connections down. Nil when the caller supplied the
	// http.Client (then connection lifecycle is theirs).
	ownedTransport *http.Transport

	mu      sync.Mutex
	idx     *core.Index
	byName  map[string]int // lazy name → idx.Records index (ReadSamples)
	shard   int
	nshards int // 0 = whole index
}

// NewClient returns a Client for the prefix server at baseURL
// (e.g. "http://host:8100"). A nil httpClient gets a default with bounded
// dial/header/request timeouts so a wedged server fails a read instead of
// hanging a scan forever; pass an explicit client to change the limits
// (record prefix reads are size-bounded, so the 2-minute request cap is
// generous at any realistic bandwidth).
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("serve: bad server url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("serve: bad server url %q: want http:// or https://", baseURL)
	}
	var owned *http.Transport
	if httpClient == nil {
		owned = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
			ResponseHeaderTimeout: 30 * time.Second,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
		}
		httpClient = &http.Client{Timeout: 2 * time.Minute, Transport: owned}
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), hc: httpClient, ownedTransport: owned}, nil
}

// SetShard restricts the client to stride shard index-of-count of the
// dataset: FetchIndex downloads only the shard view
// (GET /index?shard=i&nshards=n), so a distributed worker's index transfer
// — and everything planned from it — is proportional to its share of the
// dataset. Must be called before the first FetchIndex; the served shard
// view lists records r with r % count == index, the same disjoint
// partition pcr.Loader's WithShard computes locally.
func (c *Client) SetShard(index, count int) error {
	if count <= 0 {
		return fmt.Errorf("serve: shard count must be positive, got %d", count)
	}
	if index < 0 || index >= count {
		return fmt.Errorf("serve: shard index %d out of range [0,%d)", index, count)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx != nil {
		return fmt.Errorf("serve: SetShard after the index was fetched")
	}
	c.shard, c.nshards = index, count
	return nil
}

// FetchIndex retrieves and caches the dataset's record index (the shard
// view when SetShard was called).
func (c *Client) FetchIndex() (*core.Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.idx != nil {
		return c.idx, nil
	}
	url := c.base + "/index"
	if c.nshards > 0 {
		url = fmt.Sprintf("%s/index?shard=%d&nshards=%d", c.base, c.shard, c.nshards)
	}
	var data []byte
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryDelay(attempt - 1))
		}
		var retryable bool
		data, retryable, lastErr = c.fetchIndexOnce(url)
		if lastErr == nil {
			break
		}
		if !retryable {
			return nil, lastErr
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	ix, err := core.ParseIndex(data)
	if err != nil {
		return nil, err
	}
	c.idx = ix
	return ix, nil
}

// fetchIndexOnce is one FetchIndex attempt; retryable marks failures worth
// another try (transport errors, 5xx, truncated bodies).
func (c *Client) fetchIndexOnce(url string) (data []byte, retryable bool, err error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, true, fmt.Errorf("serve: fetching index: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, retryableStatus(resp.StatusCode), fmt.Errorf("serve: fetching index: server returned %s", resp.Status)
	}
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, fmt.Errorf("serve: fetching index: %w", err)
	}
	return data, false, nil
}

func (c *Client) recordURL(name string) string {
	return c.base + "/records/" + url.PathEscape(name)
}

// Open streams the whole named record. The initial request is retried on
// transient failures (connection errors, 5xx); once the body is streaming
// it belongs to the caller, so a mid-stream failure surfaces as a read
// error there — record readers use ReadRange, which retries the whole
// window.
func (c *Client) Open(name string) (io.ReadCloser, error) {
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryDelay(attempt - 1))
		}
		body, retryable, err := c.openOnce(name)
		if err == nil {
			return body, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// openOnce is one Open attempt; retryable marks failures worth another try
// (on this or — for a cluster client — another member).
func (c *Client) openOnce(name string) (body io.ReadCloser, retryable bool, err error) {
	resp, err := c.hc.Get(c.recordURL(name))
	if err != nil {
		return nil, true, fmt.Errorf("serve: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp.Body)
		if resp.StatusCode == http.StatusMisdirectedRequest {
			return nil, true, &misdirectedError{name: name, owner: resp.Header.Get(ownerHeader)}
		}
		return nil, retryableStatus(resp.StatusCode),
			fmt.Errorf("serve: reading %s: server returned %s", name, resp.Status)
	}
	return resp.Body, false, nil
}

// misdirectedError reports a 421 from a fleet member: the client's ring
// placed the record on a member that disagrees — stale membership, not a
// broken record. It is retryable after a membership refresh; the owner
// header tells the cluster client where the server thinks the record
// lives.
type misdirectedError struct {
	name  string
	owner string
}

func (e *misdirectedError) Error() string {
	return fmt.Sprintf("serve: reading %s: misdirected (owner is %s)", e.name, e.owner)
}

// ReadRange reads [offset, offset+length) of the named record with one
// HTTP Range request per attempt: transient failures — a reset connection,
// a 5xx, a response body cut short mid-transfer — are retried with
// jittered backoff up to the attempt budget, so one flaky read does not
// abort a whole scan or training epoch. A 416 means the index promised
// bytes the server does not have — structural damage, reported immediately
// as core.ErrCorrupt like a truncated local file.
func (c *Client) ReadRange(name string, offset, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	if length < 0 {
		return nil, fmt.Errorf("serve: negative range length %d for %s", length, name)
	}
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryDelay(attempt - 1))
		}
		buf, retryable, err := c.readRangeOnce(name, offset, length, false)
		if err == nil {
			return buf, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// readRangeOnce is one ReadRange attempt; retryable marks failures worth
// another try. hedge marks the request as a tail-latency hedge (the
// X-Pcr-Hedge header), so the receiving member's /varz shows hedged load.
func (c *Client) readRangeOnce(name string, offset, length int64, hedge bool) (buf []byte, retryable bool, err error) {
	req, err := http.NewRequest(http.MethodGet, c.recordURL(name), nil)
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", offset, offset+length-1))
	if hedge {
		req.Header.Set(hedgeHeader, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("serve: reading %s: %w", name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		buf := make([]byte, length)
		if n, err := io.ReadFull(resp.Body, buf); err != nil {
			// Could be a dropped connection (transient) or a truly short
			// object; retry, and report ErrCorrupt only once the budget is
			// spent.
			return nil, true, fmt.Errorf("serve: reading %s: %w: truncated response (got %d of %d bytes)",
				name, core.ErrCorrupt, n, length)
		}
		return buf, false, nil
	case http.StatusOK:
		// The server ignored the Range header; take the window out of the
		// full body.
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, true, fmt.Errorf("serve: reading %s: %w", name, err)
		}
		if int64(len(body)) < offset+length {
			return nil, false, fmt.Errorf("serve: reading %s: %w: object is %d bytes, want [%d,%d)",
				name, core.ErrCorrupt, len(body), offset, offset+length)
		}
		return body[offset : offset+length], false, nil
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, false, fmt.Errorf("serve: reading %s: %w: range [%d,%d) past end of record",
			name, core.ErrCorrupt, offset, offset+length)
	case http.StatusMisdirectedRequest:
		return nil, true, &misdirectedError{name: name, owner: resp.Header.Get(ownerHeader)}
	default:
		return nil, retryableStatus(resp.StatusCode),
			fmt.Errorf("serve: reading %s: server returned %s", name, resp.Status)
	}
}

// recordInfo resolves a record name against the client's cached index,
// fetching the index on first use.
func (c *Client) recordInfo(name string) (*core.RecordInfo, error) {
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

// ReadSamples implements core.SampleReader over the wire: one GET with the
// selection as a compact bitmap (?group=g&samples=b), answered by a
// pushdown-aware server with only the selected samples' coalesced byte
// ranges. The expected ranges are computed client-side from the same index
// the server holds, so the response is verified by length. A 200 without
// the pushdown header is not an answer to the request made and fails the
// read at once. Transient failures retry like ReadRange.
var _ core.SampleReader = (*Client)(nil)

func (c *Client) ReadSamples(name string, group int, sel []bool) ([]byte, error) {
	re, err := c.recordInfo(name)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryDelay(attempt - 1))
		}
		buf, retryable, err := c.readSamplesOnce(re, group, sel, false)
		if err == nil {
			return buf, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// readSamplesOnce is one ReadSamples attempt; retryable marks failures
// worth another try (on this or — for a cluster client — another member).
func (c *Client) readSamplesOnce(re *core.RecordInfo, group int, sel []bool, hedge bool) (buf []byte, retryable bool, err error) {
	if group >= len(re.Prefixes) {
		group = len(re.Prefixes) - 1 // mirror the server's clamp
	}
	ranges, err := re.SampleRanges(group, sel)
	if err != nil {
		return nil, false, err
	}
	want := core.RangesTotal(ranges)
	u := fmt.Sprintf("%s?group=%d&samples=%s", c.recordURL(re.Name), group, encodeSampleBitmap(sel))
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	if hedge {
		req.Header.Set(hedgeHeader, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("serve: reading %s: %w", re.Name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if resp.Header.Get(pushdownHeader) == "" {
			return nil, false, fmt.Errorf("serve: reading %s: server answered a samples request without %s", re.Name, pushdownHeader)
		}
		buf := make([]byte, want)
		if n, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, true, fmt.Errorf("serve: reading %s: %w: truncated pushdown response (got %d of %d bytes)",
				re.Name, core.ErrCorrupt, n, want)
		}
		return buf, false, nil
	case http.StatusMisdirectedRequest:
		return nil, true, &misdirectedError{name: re.Name, owner: resp.Header.Get(ownerHeader)}
	default:
		return nil, retryableStatus(resp.StatusCode),
			fmt.Errorf("serve: reading %s: server returned %s", re.Name, resp.Status)
	}
}

// List returns the record object names from the server's index.
func (c *Client) List() ([]string, error) {
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
func (c *Client) Close() error {
	if c.ownedTransport != nil {
		c.ownedTransport.CloseIdleConnections()
	}
	return nil
}
