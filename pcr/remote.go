package pcr

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
)

// ClusterStats snapshots the fleet counters of a remote dataset's
// cluster-aware client (see Dataset.ClusterStats).
type ClusterStats = serve.ClusterStats

// OpenRemote opens a PCR dataset served by one pcrserved prefix server or
// a whole serving fleet (see cmd/pcrserved and internal/serve). baseURL is
// one or more comma-separated seed URLs — any fleet member works as a
// seed; the full membership comes from its /cluster endpoint, and every
// record read is routed to the record's owner on the fleet's
// consistent-hash ring, hedged against a replica when the owner is slow,
// and failed over to surviving replicas when a member dies. The returned
// Dataset behaves exactly like a local one: Scan streams at any stored
// quality, SizeAtQuality prices a scan from the index without network
// reads of record bytes, and — with WithCacheBytes — a re-scan at a higher
// quality fetches only the delta bytes of each record over the wire, the
// paper's §5 cache property running across the network (and across a
// server kill: the delta read simply lands on a surviving replica).
//
// Three options change what "remote" costs. WithShard makes this worker
// download only its stride partition of the index, as the dataset it opens
// (the same records a local Open WithShard holds). WithDiskCache mounts a
// persistent local prefix cache under the read path, so a restarted worker
// re-reads warm local bytes instead of the network, and a later quality
// upgrade moves only the delta bytes. WithHedgeDelay tunes (or disables)
// the tail-latency hedging.
//
// Remote serving is specific to the PCR layout (its whole point is prefix
// ranges), so WithFormat selecting a baseline format is an error.
func OpenRemote(baseURL string, opts ...Option) (*Dataset, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.format != PCR {
		return nil, fmt.Errorf("pcr: remote serving supports the pcr format only, not %s", cfg.format.Name())
	}
	var seeds []string
	for _, s := range strings.Split(baseURL, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("pcr: no server URL in %q", baseURL)
	}
	client, err := serve.NewClusterClient(seeds, nil)
	if err != nil {
		return nil, err
	}
	if cfg.hedgeSet {
		client.SetHedgeDelay(cfg.hedgeDelay)
	}
	if cfg.shards > 1 {
		if err := client.SetShard(cfg.shard, cfg.shards); err != nil {
			client.Close()
			return nil, err
		}
	}
	ix, err := client.FetchIndex()
	if err != nil {
		client.Close()
		return nil, err
	}
	ds, err := core.OpenDatasetIndex(ix, client)
	if err != nil {
		client.Close()
		return nil, err
	}
	r, err := newPCRReader(ds, cfg)
	if err != nil {
		ds.Close()
		return nil, err
	}
	return newDataset(r, cfg, client), nil
}
