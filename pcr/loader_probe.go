package pcr

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Probe reserves one deterministic record draw for a §4.5 upward probe.
// Every Batches call on the returned handle — one per candidate quality —
// reads the SAME records in the same order, differing only in how much of
// each record's prefix it fetches, so the candidates' probe losses compare
// quality against quality rather than one random record sample against
// another. Successive Probe calls advance to fresh draws; a single-shot
// read is Probe().Batches.
func (l *Loader) Probe() *Probe {
	l.mu.Lock()
	seq := l.probeSeq
	l.probeSeq++
	l.mu.Unlock()
	return &Probe{l: l, seq: seq}
}

// Probe is one reserved probe draw; see Loader.Probe.
type Probe struct {
	l   *Loader
	seq int
}

// Batches is the out-of-band probe read path of the §4.5 controller: it
// reads just enough of the dataset's records at quality q to assemble up to
// n batches of the loader's batch size — through the same pipeline as Epoch,
// so reads overlap and the dataset's workers decode — ready to train on,
// without disturbing any epoch's visit order, resume position, or byte
// accounting. Record selection is deterministic — a seeded shuffle of the
// dataset's records keyed by (loader seed, probe sequence number) — so probe reads hit
// a representative sample, every candidate quality probed through the same
// handle reads the same records, and a re-run probes the same records.
// Bytes returns the logical record prefix bytes read; with a warm disk
// cache the network moves only each record's missing scan-group delta. The
// probe's bytes and wall time are folded into the NEXT completed epoch's
// EpochStats (Probes/ProbeBytes/ProbeWall). Probe batches carry Epoch -1.
//
// Do not run probe reads concurrently with a running Epoch of the same
// Loader over a policy-driven quality: the probe itself is safe, but the
// interleaved record reads would thrash the cache tiers mid-epoch. The
// intended call site is the epoch boundary (see internal/realtrain).
func (p *Probe) Batches(ctx context.Context, q, n int) (batches []Batch, bytes int64, err error) {
	l := p.l
	if n <= 0 {
		return nil, 0, fmt.Errorf("pcr: probe batch count must be positive, got %d", n)
	}
	if _, err := l.ds.resolveQuality(q); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	// Negative "epochs" index the probe sequence; they can never collide
	// with a real epoch's seed (the splitmix increment is odd, so only
	// epoch -1 maps to the raw seed and no non-negative epoch does).
	rng := rand.New(rand.NewSource(l.epochSeed(-1 - p.seq)))
	order := storageOrder(l.ds.NumRecords())
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// The plan is the draw cut off where n batches are covered, which the
	// index says without a read: no record beyond that is fetched.
	plan := &recordPlan{d: l.ds, order: order, policy: FixedQuality(q), need: n * l.batch}
	// The plan runs out rather than being broken off, so every record read
	// is handed over and its lease given back; what the last record holds
	// past the n batches is dropped.
	cur := make([]Sample, 0, l.batch)
	for r, err := range l.ds.pipeline(ctx, true, nil, func(p *pipeline) { p.fetch(plan) }) {
		if err != nil {
			return nil, bytes, err
		}
		bytes += r.bytes
		for _, s := range r.samples {
			if len(batches) == n {
				break
			}
			if cur = append(cur, s); len(cur) == l.batch {
				batches = append(batches, Batch{Epoch: -1, Samples: cur})
				cur = make([]Sample, 0, l.batch)
			}
		}
	}
	// A dataset smaller than n full batches yields what it has.
	if len(batches) < n && len(cur) > 0 {
		batches = append(batches, Batch{Epoch: -1, Samples: cur})
	}
	l.mu.Lock()
	l.pendingProbes++
	l.pendingProbeBytes += bytes
	l.pendingProbeWall += time.Since(start)
	l.mu.Unlock()
	return batches, bytes, nil
}
