package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/pcr"
)

// TestFleetKillOneServerMidScan is the fleet kill-tolerance e2e: three
// pcrserved processes form a replication-2 fleet, a trainer-side client
// scans through it, and one server that owns records is SIGKILLed
// mid-scan. The scan must complete (every sample exactly once), a warm
// re-scan must move zero record bytes, and a quality upgrade must move
// exactly the delta — all asserted against the surviving servers' byte
// counters, so failover cannot hide re-reads or duplicated transfers.
func TestFleetKillOneServerMidScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e (builds binaries, spawns processes)")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()

	build := exec.Command("go", "build", "-o", filepath.Join(tmp, "pcrserved"), "./cmd/pcrserved")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pcrserved: %v\n%s", err, out)
	}

	dataDir := filepath.Join(tmp, "dataset")
	n, err := pcr.Synthesize(dataDir, "cars", 0.15, 1,
		pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	if err != nil {
		t.Fatal(err)
	}

	// Fleet members must know every member's URL before any of them
	// starts, so ports are reserved up front (listen, record, release).
	const fleet = 3
	urls := make([]string, fleet)
	addrs := make([]string, fleet)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		ln.Close()
	}

	procs := make([]*exec.Cmd, fleet)
	for i := range procs {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		p := exec.Command(filepath.Join(tmp, "pcrserved"),
			"-dataset", dataDir,
			"-addr", addrs[i],
			"-self", urls[i],
			"-peers", strings.Join(peers, ","),
			"-replication", "2",
			"-cache-mb", "64")
		stderr, err := p.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		// Drain the pipe so a chatty server never blocks on it.
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
			}
		}()
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		i := i
		t.Cleanup(func() {
			procs[i].Process.Signal(syscall.SIGTERM)
			procs[i].Wait()
		})
	}
	for _, u := range urls {
		waitHealthy(t, u, 20*time.Second)
	}

	varzServed := func(url string) int64 {
		t.Helper()
		resp, err := http.Get(url + "/varz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			BytesServed int64 `json:"bytes_served"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.BytesServed
	}

	// The victim is the owner of the last record: the kill comes a third of
	// the way into a scan that reads records in order, so that record is
	// still unread and the kill provably forces failover. (Any member that
	// owns a record is not enough — all of its records may come before the
	// kill, which failed this test one run in ten.)
	sc, err := serve.NewClusterClient([]string{urls[0]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sc.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	victim := slices.Index(urls, ring.Owner(ix.Records[len(ix.Records)-1].Name))
	if victim < 0 {
		t.Fatal("no member owns the last record")
	}
	var survivors []string
	for i, u := range urls {
		if i != victim {
			survivors = append(survivors, u)
		}
	}
	sumSurvivors := func() int64 {
		t.Helper()
		var sum int64
		for _, u := range survivors {
			sum += varzServed(u)
		}
		return sum
	}

	// Hedging off: a hedge that loses the race still moves bytes, and this
	// test's whole point is byte-exact server counters.
	ds, err := pcr.OpenRemote(strings.Join(urls, ","),
		pcr.WithCacheBytes(256<<20),
		pcr.WithHedgeDelay(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	scan := func(q int) {
		t.Helper()
		seen := make(map[int64]int, n)
		killAt := n / 3
		for s, err := range ds.ScanEncoded(context.Background(), q) {
			if err != nil {
				t.Fatalf("scan at quality %d: %v", q, err)
			}
			seen[s.ID]++
			if victim >= 0 && len(seen) == killAt {
				procs[victim].Process.Kill()
				procs[victim].Wait()
				victim = -1 // kill only once, on the first (cold) scan
			}
		}
		if len(seen) != n {
			t.Fatalf("scan at quality %d delivered %d distinct samples, want %d", q, len(seen), n)
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("sample %d delivered %d times", id, c)
			}
		}
	}

	// Cold scan at quality 1, one server SIGKILLed a third of the way in.
	scan(1)
	if st, ok := ds.ClusterStats(); !ok || st.Failovers == 0 {
		t.Fatalf("scan survived the kill without failing over: %+v", st)
	}
	served := sumSurvivors()
	if served == 0 {
		t.Fatal("survivors served no record bytes")
	}

	// Warm re-scan: everything is cached at quality 1 — zero record bytes
	// may move.
	scan(1)
	if moved := sumSurvivors() - served; moved != 0 {
		t.Fatalf("warm re-scan moved %d record bytes, want 0", moved)
	}

	// Quality upgrade: exactly the delta between the quality-2 and
	// quality-1 prefixes crosses the wire — byte-exact delta upgrades,
	// asserted against the surviving servers' counters.
	s1, err := ds.SizeAtQuality(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ds.SizeAtQuality(2)
	if err != nil {
		t.Fatal(err)
	}
	scan(2)
	if moved, want := sumSurvivors()-served, int64(s2-s1); moved != want {
		t.Fatalf("quality upgrade moved %d bytes, want exactly the delta %d", moved, want)
	}
}

// waitHealthy polls url/healthz until it answers 200 or the deadline
// passes.
func waitHealthy(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s did not become healthy within %v", url, timeout)
}
