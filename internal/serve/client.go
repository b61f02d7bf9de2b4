package serve

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
)

// Retry policy for the client's idempotent GETs (index, record, range
// reads): a mid-epoch connection reset or truncated response body must not
// abort a whole training epoch, so each read gets a small bounded budget of
// passes over the record's replica set, with jittered exponential backoff
// between them. Per-attempt limits are the http.Client's own timeouts, so
// the worst case stays bounded.
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

// newHTTPClient is the http.Client a ClusterClient, or a Server pulling from
// its peers, makes for itself: bounded dial, header and request timeouts, so
// a wedged server fails a read instead of hanging a scan forever (record
// prefix reads are size-bounded, so the 2-minute request cap is generous at
// any realistic bandwidth). Whoever made it releases its idle connections
// with CloseIdleConnections.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		ResponseHeaderTimeout: 30 * time.Second,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
	}}
}

// member is the wire protocol against one prefix server: a base URL, the
// http.Client shared by the whole fleet, and the single-attempt calls. Each
// call reports whether its failure is worth another try — on this member or
// another; the policy of retrying, failing over and hedging is the
// ClusterClient's alone.
type member struct {
	url  string // as the fleet's ring names it
	base string // normalized: no trailing slash
	hc   *http.Client
}

// newMember validates and normalizes a server URL (e.g. "http://host:8100").
func newMember(rawURL string, hc *http.Client) (*member, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("serve: bad server url %q: %w", rawURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("serve: bad server url %q: want http:// or https://", rawURL)
	}
	return &member{url: rawURL, base: strings.TrimRight(u.String(), "/"), hc: hc}, nil
}

// fetchIndexOnce is one GET of the index document at path ("/index", with
// the shard query when there is one); retryable marks failures worth another
// try (transport errors, 5xx, truncated bodies).
func (m *member) fetchIndexOnce(path string) (data []byte, retryable bool, err error) {
	resp, err := m.hc.Get(m.base + path)
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

func (m *member) recordURL(name string) string {
	return m.base + "/records/" + url.PathEscape(name)
}

// openOnce is one request for the whole named record, its body handed over
// as soon as the headers are in.
func (m *member) openOnce(name string) (body io.ReadCloser, retryable bool, err error) {
	resp, err := m.hc.Get(m.recordURL(name))
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

// readRangeOnce is one HTTP Range request for [offset, offset+length) of the
// named record. A reset connection, a 5xx and a response body cut short
// mid-transfer are retryable; a 416 means the index promised bytes the
// server does not have — structural damage, reported as core.ErrCorrupt like
// a truncated local file, and not retryable. hedge marks the request as a
// tail-latency hedge (the X-Pcr-Hedge header), so the receiving member's
// /varz shows hedged load. The bytes are read into dst when it has room
// (core.BufferFor).
func (m *member) readRangeOnce(dst []byte, name string, offset, length int64, hedge bool) (buf []byte, retryable bool, err error) {
	req, err := http.NewRequest(http.MethodGet, m.recordURL(name), nil)
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", offset, offset+length-1))
	if hedge {
		req.Header.Set(hedgeHeader, "1")
	}
	resp, err := m.hc.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("serve: reading %s: %w", name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		buf := core.BufferFor(dst, length)
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
		// body, read only up to the window's end — however much more the
		// server sends, or if it never stops.
		body, err := io.ReadAll(io.LimitReader(resp.Body, offset+length))
		if err != nil {
			return nil, true, fmt.Errorf("serve: reading %s: %w", name, err)
		}
		if int64(len(body)) < offset+length {
			return nil, false, fmt.Errorf("serve: reading %s: %w: object is %d bytes, want [%d,%d)",
				name, core.ErrCorrupt, len(body), offset, offset+length)
		}
		buf := core.BufferFor(dst, length)
		copy(buf, body[offset:])
		return buf, false, nil
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

// readSamplesOnce is one pushdown request: a GET with the selection as a
// compact bitmap (?group=g&samples=b), answered by the server with only the
// selected samples' coalesced byte ranges. The expected ranges are computed
// here from the same index the server holds, so the response is verified by
// length. A 200 without the pushdown header is not an answer to the request
// made and is not retryable.
func (m *member) readSamplesOnce(re *core.RecordInfo, group int, sel []bool) (buf []byte, retryable bool, err error) {
	group = re.ClampGroup(group)
	ranges, err := re.SampleRanges(group, sel)
	if err != nil {
		return nil, false, err
	}
	want := core.RangesTotal(ranges)
	resp, err := m.hc.Get(fmt.Sprintf("%s?group=%d&samples=%s", m.recordURL(re.Name), group, encodeSampleBitmap(sel)))
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
