package pcr_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/pcr"
)

// startFleet serves dir from n fleet members with the given replication.
// wrap (optional) decorates member i's handler. Listeners are bound before
// any server is built because each member's configuration names every
// member's URL.
func startFleet(t *testing.T, dir string, n, replication int, wrap func(i int, h http.Handler) http.Handler) []string {
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
	for i := range urls {
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
		hs := &http.Server{Handler: h}
		go hs.Serve(lns[i])
		i := i
		t.Cleanup(func() {
			hs.Close()
			lns[i].Close()
			srv.Close()
		})
	}
	return urls
}

// varzHedged reads the hedged_requests counter a member exposes at /varz.
func varzHedged(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		HedgedRequests int64 `json:"hedged_requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.HedgedRequests
}

// TestFleetScanHedgesSlowMember: scanning through a 3-member fleet with
// one artificially slow member, hedged reads fire (visible both in the
// client's stats and in the fleet's /varz hedged_requests counters) and
// every sample is delivered exactly once — a hedge that loses the race
// must not surface its copy of the data.
func TestFleetScanHedgesSlowMember(t *testing.T) {
	// One image per record, 31 records: placement follows the members'
	// random ports, and with the four records of 8 per record the slow
	// member was primary for none of them one run in five.
	dir, n := synthDir(t, pcr.WithImagesPerRecord(1), pcr.WithScanGroups(4))

	// Member 0 answers record reads slowly; membership and index stay
	// fast so only the data path is dragged.
	const crawl = 60 * time.Millisecond
	urls := startFleet(t, dir, 3, 2, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/records/") {
				time.Sleep(crawl)
			}
			h.ServeHTTP(w, r)
		})
	})

	ds, err := pcr.OpenRemote(strings.Join(urls, ","),
		pcr.WithCacheBytes(32<<20),
		pcr.WithHedgeDelay(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	seen := make(map[int64]int, n)
	for s, err := range ds.ScanEncoded(context.Background(), pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
		seen[s.ID]++
	}
	if len(seen) != n {
		t.Fatalf("scan delivered %d distinct samples, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d delivered %d times — hedging duplicated delivery", id, c)
		}
	}

	st, ok := ds.ClusterStats()
	if !ok {
		t.Fatal("no cluster stats from a fleet dataset")
	}
	if st.Hedges == 0 {
		t.Fatalf("no hedges fired against a member %v slower than the hedge delay: %+v", crawl, st)
	}
	var hedged int64
	for _, u := range urls {
		hedged += varzHedged(t, u)
	}
	if hedged == 0 {
		t.Fatalf("client hedged %d times but no member counted a hedged request on /varz", st.Hedges)
	}
}
