// Command pcrserved serves a PCR dataset directory over HTTP: the record
// index at /index and byte-range prefix reads at /records/{name} (with
// optional ?group=g truncation), so remote readers — pcr.OpenRemote, or any
// HTTP client that speaks Range — can run the paper's progressive read path
// against disaggregated storage. Counters are exposed at /varz and
// /debug/vars; /healthz answers liveness probes; /cluster reports fleet
// membership.
//
// Usage:
//
//	pcrserved -dataset DIR [-addr :8100] [-cache-mb 256] \
//	          [-disk-cache-dir DIR [-disk-cache-mb 1024]] \
//	          [-self URL -peers URL1,URL2 [-replication 2] [-sync]]
//
// The -cache-mb budget feeds a shared LRU of hot record prefixes: repeat
// reads of a popular record are served from memory, and a request for a
// higher quality than was cached reads only the delta bytes from disk.
// -disk-cache-dir mounts a second, persistent tier under the memory LRU
// (internal/diskcache): prefixes evicted from memory are still a local
// read away, and the tier survives restarts: startup reads each data
// file's header without reading cached bytes, and each entry is CRC-checked
// on its first read. The directory must belong to this server process alone.
//
// Fleet mode: -peers lists the other members of a sharded serving fleet
// and -self is this member's own URL as clients reach it. Every member is
// started with the same member set and -replication, and the shared
// consistent-hash ring (internal/cluster) assigns each record an owner and
// replicas; this server admits requests only for records placed on it and
// answers the rest with 421 plus the owner's URL. -sync warms this
// member's hot cache at startup by pulling its replicated records from
// their owners. Cluster-aware clients (pcr.OpenRemote with one or more
// seed URLs) discover the membership from /cluster, route reads to owners,
// hedge slow reads against replicas, and fail over when a member dies.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	dir := flag.String("dataset", "", "PCR dataset directory to serve")
	addr := flag.String("addr", ":8100", "listen address")
	cacheMB := flag.Int64("cache-mb", 256, "hot-prefix LRU budget in MiB (0 = no cache)")
	diskDir := flag.String("disk-cache-dir", "", "persistent prefix cache directory (empty = no disk tier)")
	diskMB := flag.Int64("disk-cache-mb", 1024, "persistent prefix cache budget in MiB")
	self := flag.String("self", "", "fleet mode: this member's URL as clients reach it (e.g. http://10.0.0.7:8100)")
	peers := flag.String("peers", "", "fleet mode: comma-separated URLs of the other fleet members")
	replication := flag.Int("replication", 1, "fleet mode: replicas per record, owner included")
	sync := flag.Bool("sync", false, "fleet mode: warm this member's cache by pulling replicated records from their owners at startup")
	logReqs := flag.Bool("log-requests", false, "log one line per request")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "pcrserved: -dataset is required")
		os.Exit(2)
	}
	opts := serve.Options{
		CacheBytes:     *cacheMB << 20,
		DiskCacheDir:   *diskDir,
		DiskCacheBytes: *diskMB << 20,
		LogRequests:    *logReqs,
	}
	if *peers != "" || *self != "" {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "pcrserved: fleet mode (-peers) requires -self")
			os.Exit(2)
		}
		cc := &serve.ClusterConfig{Self: *self, Replication: *replication}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cc.Peers = append(cc.Peers, p)
			}
		}
		opts.Cluster = cc
	}
	if err := run(*dir, *addr, &opts, *sync); err != nil {
		fmt.Fprintln(os.Stderr, "pcrserved:", err)
		os.Exit(1)
	}
}

func run(dir, addr string, opts *serve.Options, sync bool) error {
	if sync && opts.Cluster == nil {
		return fmt.Errorf("-sync requires fleet mode (-self/-peers)")
	}
	s, err := serve.New(dir, opts)
	if err != nil {
		return err
	}
	defer s.Close()

	// Publish the server's counters into the process-wide expvar registry
	// (alongside memstats and cmdline) and mount the standard handler.
	expvar.Publish("pcrserved", expvar.Func(func() any { return s.Stats() }))
	mux := http.NewServeMux()
	mux.Handle("/", s)
	mux.Handle("/debug/vars", expvar.Handler())

	srv := &http.Server{
		Addr:    addr,
		Handler: mux,
		// Bound slow clients: a connection that dribbles its headers or
		// idles between requests must not pin a goroutine and fd forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before serving so the bound address is known: with -addr :0
	// (tests, colocated workers) the log line is the only way to learn the
	// chosen port.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() {
		if opts.Cluster != nil {
			log.Printf("pcrserved: fleet member %s (replication %d, %d peers)",
				opts.Cluster.Self, opts.Cluster.Replication, len(opts.Cluster.Peers))
		}
		log.Printf("pcrserved: serving %s on %s", dir, ln.Addr())
		errc <- srv.Serve(ln)
	}()
	if sync {
		// Replica warm-up runs beside serving, not before it: owners may
		// still be starting during a rolling fleet bring-up, and a replica
		// that cannot reach an owner just reads through to the backing
		// store.
		go func() {
			warmed, err := s.SyncReplicas(ctx)
			if err != nil {
				log.Printf("pcrserved: replica sync warmed %d records with errors: %v", warmed, err)
				return
			}
			log.Printf("pcrserved: replica sync warmed %d records", warmed)
		}()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("pcrserved: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
