package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/pcr"
)

// fleetMember is one in-process fleet server: a serve.Server in cluster
// mode behind its own listener. httptest.NewServer cannot be used directly
// because every member's URL must be known before any server is
// constructed — the member set is part of each server's configuration.
type fleetMember struct {
	url   string
	srv   *serve.Server
	hs    *http.Server
	ln    net.Listener
	conns atomic.Int64 // connections accepted
}

func (m *fleetMember) kill() {
	m.hs.Close()
	m.ln.Close()
}

// startFleet synthesizes a dataset and serves it from n fleet members with
// the given replication. wrap (optional) decorates member i's handler —
// the hook for injecting slowness or failures.
func startFleet(t *testing.T, n, replication int, wrap func(i int, h http.Handler) http.Handler) (string, []*fleetMember) {
	t.Helper()
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 1,
		pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)); err != nil {
		t.Fatal(err)
	}
	return dir, startFleetOn(t, dir, n, replication, wrap)
}

// startFleetOn is startFleet over a dataset already written to dir.
func startFleetOn(t *testing.T, dir string, n, replication int, wrap func(i int, h http.Handler) http.Handler) []*fleetMember {
	t.Helper()

	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}

	members := make([]*fleetMember, n)
	for i := range members {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv, err := serve.New(dir, &serve.Options{
			CacheBytes: 8 << 20,
			Cluster:    &serve.ClusterConfig{Self: urls[i], Peers: peers, Replication: replication},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv)
		if wrap != nil {
			h = wrap(i, h)
		}
		m := &fleetMember{url: urls[i], srv: srv, ln: lns[i]}
		m.hs = &http.Server{Handler: h, ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				m.conns.Add(1)
			}
		}}
		members[i] = m
		go m.hs.Serve(lns[i])
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.kill()
			m.srv.Close()
		}
	})
	return members
}

func getClusterInfo(t *testing.T, url string) cluster.Info {
	t.Helper()
	resp, err := http.Get(url + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cluster: %s", resp.Status)
	}
	var info cluster.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func fetchIndexURL(t *testing.T, url string) *core.Index {
	t.Helper()
	resp, err := http.Get(url + "/index")
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

// TestClusterEndpoint: every fleet member publishes the same sorted
// membership and epoch, names itself, and answers conditional polls with
// 304.
func TestClusterEndpoint(t *testing.T) {
	_, members := startFleet(t, 3, 2, nil)
	var epoch string
	for i, m := range members {
		info := getClusterInfo(t, m.url)
		if len(info.Members) != 3 || info.Replication != 2 {
			t.Fatalf("member %d: bad info %+v", i, info)
		}
		if info.Self != m.url {
			t.Fatalf("member %d: self = %s, want %s", i, info.Self, m.url)
		}
		if i == 0 {
			epoch = info.Epoch
		} else if info.Epoch != epoch {
			t.Fatalf("member %d: epoch %s differs from %s", i, info.Epoch, epoch)
		}
		for j := 1; j < len(info.Members); j++ {
			if info.Members[j] < info.Members[j-1] {
				t.Fatalf("member %d: members not sorted: %v", i, info.Members)
			}
		}
	}

	// Conditional poll: the ETag round-trips as a 304.
	resp, err := http.Get(members[0].url + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /cluster")
	}
	req, _ := http.NewRequest(http.MethodGet, members[0].url+"/cluster", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional /cluster: got %s, want 304", resp.Status)
	}
}

// TestClusterEndpointStandalone: a server without cluster config
// synthesizes a single-member fleet from the URL the client used, so
// cluster-aware clients speak one protocol to any server.
func TestClusterEndpointStandalone(t *testing.T) {
	_, _, ts := startServer(t, &serve.Options{})
	info := getClusterInfo(t, ts.URL)
	if len(info.Members) != 1 || info.Members[0] != ts.URL || info.Self != ts.URL {
		t.Fatalf("bad standalone info %+v (server at %s)", info, ts.URL)
	}
	if info.Replication != 1 {
		t.Fatalf("standalone replication = %d, want 1", info.Replication)
	}
}

// TestFleetServesOnlyPlacedRecords: each member admits exactly the records
// the ring places on it and answers 421 with the owner's URL for the rest
// — and the fleet's verdicts agree with a ring built independently, the
// server half of the placement-determinism contract.
func TestFleetServesOnlyPlacedRecords(t *testing.T) {
	_, members := startFleet(t, 3, 2, nil)
	ix := fetchIndexURL(t, members[0].url)
	if len(ix.Records) == 0 {
		t.Fatal("empty index")
	}
	urls := []string{members[0].url, members[1].url, members[2].url}
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range ix.Records {
		reps := ring.Replicas(re.Name, 2)
		placed := map[string]bool{}
		for _, m := range reps {
			placed[m] = true
		}
		got := 0
		for _, m := range members {
			resp, err := http.Get(m.url + "/records/" + re.Name)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if placed[m.url] {
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("member %s should serve %s, got %s", m.url, re.Name, resp.Status)
				}
				got++
			} else {
				if resp.StatusCode != http.StatusMisdirectedRequest {
					t.Fatalf("member %s should refuse %s with 421, got %s", m.url, re.Name, resp.Status)
				}
				if owner := resp.Header.Get("X-Pcr-Owner"); owner != reps[0] {
					t.Fatalf("421 owner header = %q, want %q", owner, reps[0])
				}
			}
		}
		if got != 2 {
			t.Fatalf("record %s served by %d members, want replication 2", re.Name, got)
		}
	}
	// Each record drew a 421 from every member it is not placed on.
	var misdirected int64
	for _, m := range members {
		misdirected += m.srv.Stats().Misdirected
	}
	if want := int64(len(ix.Records)) * (3 - 2); misdirected != want {
		t.Fatalf("fleet counted %d misdirected requests, want %d", misdirected, want)
	}
}

// TestClusterClientRoutesToOwners: a cluster client reading every record
// is never misdirected — client and servers agree on placement — and the
// bytes match what the owning member serves directly.
func TestClusterClientRoutesToOwners(t *testing.T) {
	_, members := startFleet(t, 3, 2, nil)
	cc, err := serve.NewClusterClient([]string{members[1].url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ix, err := cc.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Records) == 0 {
		t.Fatal("empty index")
	}
	urls := []string{members[0].url, members[1].url, members[2].url}
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range ix.Records {
		size := re.Prefixes[len(re.Prefixes)-1]
		got, err := cc.ReadRange(re.Name, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		_, want := get(t, ring.Owner(re.Name)+"/records/"+re.Name, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %s: cluster read differs from owner's copy (%d vs %d bytes)",
				re.Name, len(got), len(want))
		}
	}
	if st := cc.Stats(); st.Misdirects != 0 {
		t.Fatalf("client was misdirected %d times; placement disagrees", st.Misdirects)
	}
	for _, m := range members {
		if s := m.srv.Stats(); s.Misdirected != 0 {
			t.Fatalf("member %s saw %d misdirected requests", m.url, s.Misdirected)
		}
	}
}

// TestClusterClientFailover: killing one member mid-workload moves reads
// to the surviving replicas; every record stays readable because
// replication 2 leaves a live copy of everything.
func TestClusterClientFailover(t *testing.T) {
	_, members := startFleet(t, 3, 2, nil)
	cc, err := serve.NewClusterClient([]string{members[0].url, members[2].url}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	ix, err := cc.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	readAll := func() {
		t.Helper()
		for _, re := range ix.Records {
			size := re.Prefixes[len(re.Prefixes)-1]
			if _, err := cc.ReadRange(re.Name, 0, size); err != nil {
				t.Fatalf("read %s: %v", re.Name, err)
			}
		}
	}
	readAll()

	// Kill a member that owns at least one record (a tiny dataset can
	// leave a member ownerless), so the second pass must fail over.
	urls := []string{members[0].url, members[1].url, members[2].url}
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	killed := ""
	for _, m := range members {
		for _, re := range ix.Records {
			if ring.Owner(re.Name) == m.url {
				killed = m.url
				m.kill()
				break
			}
		}
		if killed != "" {
			break
		}
	}
	if killed == "" {
		t.Fatal("no member owns any record")
	}
	readAll()
	if st := cc.Stats(); st.Failovers == 0 {
		t.Fatalf("no failovers counted after owner %s died: %+v", killed, st)
	}
}

// TestSyncReplicas: members warm their replicated records by pulling the
// bytes from each record's owner over HTTP — counted on both sides. With
// replication 2 every record has exactly one non-owning replica, so the
// fleet-wide warm count must equal the record count. A member's pulls share
// one connection per owner, however many records it warms: the dataset has
// more records than the fleet has (member, owner) pairs.
func TestSyncReplicas(t *testing.T) {
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 1, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4)); err != nil {
		t.Fatal(err)
	}
	members := startFleetOn(t, dir, 3, 2, nil)
	ix := fetchIndexURL(t, members[0].url)
	var connsBefore int64
	for _, m := range members {
		connsBefore += m.conns.Load()
	}
	var warmed int
	var pulled, pulls int64
	for _, m := range members {
		w, err := m.srv.SyncReplicas(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		warmed += w
		st := m.srv.Stats()
		pulled += st.ReplicaPullBytes
		pulls += st.ReplicaPulls
	}
	if warmed != len(ix.Records) {
		t.Fatalf("fleet warmed %d records, want %d (one non-owning replica per record)",
			warmed, len(ix.Records))
	}
	if pulls == 0 || pulled == 0 {
		t.Fatalf("no owner pulls counted (pulls=%d bytes=%d)", pulls, pulled)
	}
	conns := -connsBefore
	for _, m := range members {
		conns += m.conns.Load()
	}
	if pairs := int64(len(members) * (len(members) - 1)); conns > pairs || pulls <= pairs {
		t.Fatalf("%d pulls opened %d connections, want at most one per (member, owner) pair — of which there are %d — and more pulls than that",
			pulls, conns, pairs)
	}
	// The pulls landed on the owners as served record bytes.
	var served int64
	for _, m := range members {
		served += m.srv.Stats().BytesServed
	}
	if served < pulled {
		t.Fatalf("owners served %d bytes < %d pulled", served, pulled)
	}
}

// scriptedFleet binds n listeners up front and installs raw handlers —
// the failure-injection rig for client behavior that real fleet servers
// cannot exhibit on demand. Handlers are installed after the URLs (and
// thus the ring placement) are known.
func scriptedFleet(t *testing.T, n int) ([]string, func(i int, h http.Handler)) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	return urls, func(i int, h http.Handler) {
		hs := &http.Server{Handler: h}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close(); lns[i].Close() })
	}
}

func clusterInfoJSON(t *testing.T, members []string, replication int, self string) []byte {
	t.Helper()
	data, err := json.Marshal(cluster.Info{
		Members:     members,
		Replication: replication,
		Self:        self,
		Epoch:       cluster.Epoch(members, replication),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHedgeStructuralFailsFast: when the owner is slow and the hedged
// replica answers 416 (or 404), the read fails immediately with the
// structural error — it neither waits out the slow owner nor retries the
// other member, because the index promised bytes the fleet does not have.
func TestHedgeStructuralFailsFast(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int
		wantErr    error
		wantSubstr string
	}{
		{name: "416", status: http.StatusRequestedRangeNotSatisfiable, wantErr: core.ErrCorrupt},
		{name: "404", status: http.StatusNotFound, wantSubstr: "404"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rec = "records/000000.pcr"
			const slowFor = 2 * time.Second

			urls, install := scriptedFleet(t, 2)
			ring, err := cluster.New(urls)
			if err != nil {
				t.Fatal(err)
			}
			owner := ring.Owner(rec)

			var structHits atomic.Int64
			for i, u := range urls {
				self := u
				install(i, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/cluster") {
						w.Write(clusterInfoJSON(t, urls, 2, self))
						return
					}
					if self == owner {
						// The owner hangs: only a hedge can answer sooner.
						time.Sleep(slowFor)
						w.WriteHeader(http.StatusOK)
						return
					}
					structHits.Add(1)
					http.Error(w, "scripted", tc.status)
				}))
			}

			cc, err := serve.NewClusterClient([]string{urls[0]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			cc.SetHedgeDelay(time.Millisecond)

			start := time.Now()
			_, err = cc.ReadRange(rec, 0, 64)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("read should fail")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
			if tc.wantSubstr != "" && !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantSubstr)
			}
			if elapsed >= slowFor {
				t.Fatalf("read took %v: waited out the slow owner instead of failing fast", elapsed)
			}
			if n := structHits.Load(); n != 1 {
				t.Fatalf("structural member hit %d times, want exactly 1 (no retry)", n)
			}
			if st := cc.Stats(); st.Hedges != 1 {
				t.Fatalf("hedges = %d, want 1: %+v", st.Hedges, st)
			}
		})
	}
}

// TestMisdirectRefreshesMembership: a 421 from a member whose world view
// is newer than the client's makes the client re-fetch /cluster and route
// by the fresh ring until the read lands.
func TestMisdirectRefreshesMembership(t *testing.T) {
	const rec = "records/000000.pcr"
	payload := []byte("0123456789abcdef")

	urls, install := scriptedFleet(t, 2)
	a, b := urls[0], urls[1]

	// Member B serves the record and reports the true two-member fleet.
	install(1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster") {
			w.Write(clusterInfoJSON(t, urls, 2, b))
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", len(payload)-1, len(payload)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(payload)
	}))
	// Member A initially claims to be alone; once it has refused a record
	// it starts telling the truth. Until then the client's ring is [A]
	// only, so the first read must go to A and be misdirected.
	var told atomic.Bool
	install(0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster") {
			if told.Load() {
				w.Write(clusterInfoJSON(t, urls, 2, a))
			} else {
				w.Write(clusterInfoJSON(t, []string{a}, 1, a))
			}
			return
		}
		told.Store(true)
		w.Header().Set("X-Pcr-Owner", b)
		http.Error(w, "not mine", http.StatusMisdirectedRequest)
	}))

	cc, err := serve.NewClusterClient([]string{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	got, err := cc.ReadRange(rec, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q, want %q", got, payload)
	}
	st := cc.Stats()
	if st.Misdirects == 0 || st.Refreshes == 0 {
		t.Fatalf("expected a misdirect-driven refresh, got %+v", st)
	}
}
