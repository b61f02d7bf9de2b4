package serve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Retry policy for the client's idempotent GETs (index, record, range
// reads): a mid-epoch connection reset or truncated response body must not
// abort a whole training epoch, so each read gets a small bounded budget of
// passes over the members that serve it (a record's replica set; every
// member for the index), with jittered exponential backoff between them.
// Per-attempt limits are the http.Client's timeouts (member.get), so the
// worst case stays bounded.
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
// http.Client shared by the whole fleet — of which get uses the Transport
// and the Timeout — and the single-attempt calls, each one GET through
// get, which classifies its failure once: worth another try — on this
// member or another — or not. The policy of retrying, failing over and
// hedging is the ClusterClient's alone.
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

// maxIndexBytes bounds an /index body: ample headroom over a paper-scale
// index (≈ 33 MB for ImageNet's 1.28 M images), and a bound on what a
// broken or hostile server can make a client buffer. A var so that a test
// can lower it.
var maxIndexBytes int64 = 1 << 30

// get is the one GET every client call makes of one member: url, with rng
// as its Range header when set and marked as a tail-latency hedge when
// hedge is (the X-Pcr-Hedge header, so the receiving member's /varz shows
// hedged load). It sends the request as one RoundTrip of the client's
// Transport, not through the client's Do: the client's Timeout becomes the
// request's deadline, which holds over the body too and is released when
// the body is closed, and no redirect is followed — no prefix server sends
// one, so a 3xx is a final error like any other status not asked for. It
// accepts a 200 to an unranged request and a 206 to a ranged one, and
// answers with the response, whose body is the caller's to close. A 200 to
// a ranged request is the whole object, which no prefix server sends
// (resolveRange answers every window a client asks for with 206 or 416):
// it is refused, not retryable, its body closed unread. Every other
// outcome is classified once, with the body drained and closed: a
// transport error and a 500, 502, 503 or 504 are retryable; a 421 is a
// misdirectedError carrying the owner header, retryable after a membership
// refresh; a 416 means the index promised bytes the server does not have —
// structural damage, reported as core.ErrCorrupt like a truncated local
// file; any other status is final. name is what is read, for the error.
func (m *member) get(url, name, rng string, hedge bool) (*http.Response, bool, error) {
	ctx, release := context.Background(), func() {}
	if m.hc.Timeout > 0 {
		ctx, release = context.WithTimeout(ctx, m.hc.Timeout)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		release()
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	if hedge {
		req.Header.Set(hedgeHeader, "1")
	}
	rt := m.hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		release()
		return nil, true, fmt.Errorf("serve: reading %s: %w", name, err)
	}
	resp.Body = &deadlineBody{ReadCloser: resp.Body, release: release}
	code := resp.StatusCode
	if code == http.StatusOK && rng == "" || code == http.StatusPartialContent && rng != "" {
		return resp, false, nil
	}
	if code == http.StatusOK {
		//lint:ignore bodycloseretry a whole object is refused unread: no drain cap would free the connection
		resp.Body.Close()
		return nil, false, fmt.Errorf("serve: reading %s: server answered a request for %s with the whole object (%s)", name, rng, resp.Status)
	}
	drainClose(resp.Body)
	retryable := false
	switch code {
	case http.StatusMisdirectedRequest:
		return nil, true, &misdirectedError{name: name, owner: resp.Header.Get(ownerHeader)}
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, false, fmt.Errorf("serve: reading %s: %w: range past end of record (server returned %s)",
			name, core.ErrCorrupt, resp.Status)
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		retryable = true
	}
	return nil, retryable, fmt.Errorf("serve: reading %s: server returned %s", name, resp.Status)
}

// deadlineBody is the body of a response to a request that may have a
// deadline, which closing the body releases.
type deadlineBody struct {
	io.ReadCloser
	release func()
}

func (b *deadlineBody) Close() error {
	err := b.ReadCloser.Close()
	b.release()
	return err
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

// document is one GET of a document at path (the index, with the shard
// query when there is one; the JSON membership), read whole. A body cut
// short is retryable; one over limit bytes is final, and refused unread
// when its Content-Length says so.
func (m *member) document(path, name string, limit int64) ([]byte, bool, error) {
	resp, retryable, err := m.get(m.base+path, name, "", false)
	if err != nil {
		return nil, retryable, err
	}
	if resp.ContentLength > limit {
		drainClose(resp.Body)
		return nil, false, fmt.Errorf("serve: reading %s: %d bytes, over %d", name, resp.ContentLength, limit)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	resp.Body.Close()
	if err != nil {
		return nil, true, fmt.Errorf("serve: reading %s: %w", name, err)
	}
	if int64(len(data)) > limit {
		return nil, false, fmt.Errorf("serve: reading %s: over %d bytes", name, limit)
	}
	return data, false, nil
}

func (m *member) recordURL(name string) string {
	return m.base + "/records/" + url.PathEscape(name)
}

// openOnce is one request for the whole named record, its body handed over
// as soon as the headers are in.
func (m *member) openOnce(name string) (io.ReadCloser, bool, error) {
	resp, retryable, err := m.get(m.recordURL(name), name, "", false)
	if err != nil {
		return nil, retryable, err
	}
	return resp.Body, false, nil
}

// readRangeOnce is one HTTP Range request for [offset, offset+length) of the
// named record, read by readBody. A 206 that declares another window or
// length (holdsWindow) is core.ErrCorrupt and retryable.
func (m *member) readRangeOnce(dst []byte, name string, offset, length int64, hedge bool) ([]byte, bool, error) {
	resp, retryable, err := m.get(m.recordURL(name), name, fmt.Sprintf("bytes=%d-%d", offset, offset+length-1), hedge)
	if err != nil {
		return nil, retryable, err
	}
	if !holdsWindow(resp, offset, length) {
		resp.Body.Close()
		return nil, true, fmt.Errorf("serve: reading %s: %w: a 206 for bytes %d-%d declares Content-Range %q and Content-Length %d",
			name, core.ErrCorrupt, offset, offset+length-1, resp.Header.Get("Content-Range"), resp.ContentLength)
	}
	return readBody(resp, dst, name, length)
}

// readBody reads and closes a record answer's body, exactly n bytes, into
// dst when it has room (core.BufferFor). A body cut short is core.ErrCorrupt
// and retryable: a dropped connection looks the same as a truly short
// object, so the failover loop retries and reports ErrCorrupt only once its
// budget is spent.
func readBody(resp *http.Response, dst []byte, name string, n int64) ([]byte, bool, error) {
	defer resp.Body.Close()
	buf := core.BufferFor(dst, n)
	if got, err := io.ReadFull(resp.Body, buf); err != nil {
		return nil, true, fmt.Errorf("serve: reading %s: %w: truncated response (got %d of %d bytes)",
			name, core.ErrCorrupt, got, n)
	}
	return buf, false, nil
}

// holdsWindow reports whether a 206 declares exactly the length bytes at
// offset: a Content-Range of "bytes offset-(offset+length-1)/" and a total,
// and no Content-Length but length. It allocates nothing.
func holdsWindow(resp *http.Response, offset, length int64) bool {
	if resp.ContentLength >= 0 && resp.ContentLength != length {
		return false
	}
	var b [48]byte
	want := append(b[:0], "bytes "...)
	want = strconv.AppendInt(want, offset, 10)
	want = append(want, '-')
	want = strconv.AppendInt(want, offset+length-1, 10)
	want = append(want, '/')
	cr := resp.Header.Get("Content-Range")
	return len(cr) > len(want) && cr[:len(want)] == string(want)
}

// readSamplesOnce is one pushdown request: a GET with the selection as a
// compact bitmap (?group=g&samples=b), answered by the server with only the
// selected samples' coalesced byte ranges, read by readBody. The ranges'
// total is computed here from the same index the server holds
// (RecordInfo.SampleBytes), so the response is verified by length: a
// declared Content-Length other than the planned total is refused unread,
// core.ErrCorrupt and retryable. A 200 without the pushdown header is not
// an answer to the request made and is not retryable.
func (m *member) readSamplesOnce(dst []byte, re *core.RecordInfo, group int, sel []bool) ([]byte, bool, error) {
	group = re.ClampGroup(group)
	want, err := re.SampleBytes(group, sel)
	if err != nil {
		return nil, false, err
	}
	resp, retryable, err := m.get(fmt.Sprintf("%s?group=%d&samples=%s", m.recordURL(re.Name), group, encodeSampleBitmap(sel)), re.Name, "", false)
	if err != nil {
		return nil, retryable, err
	}
	if resp.Header.Get(pushdownHeader) == "" {
		drainClose(resp.Body)
		return nil, false, fmt.Errorf("serve: reading %s: server answered a samples request without %s", re.Name, pushdownHeader)
	}
	if resp.ContentLength >= 0 && resp.ContentLength != want {
		resp.Body.Close()
		return nil, true, fmt.Errorf("serve: reading %s: %w: pushdown response declares %d bytes, want %d",
			re.Name, core.ErrCorrupt, resp.ContentLength, want)
	}
	return readBody(resp, dst, re.Name, want)
}
