package pcr

import (
	"fmt"
	"iter"
	"sync/atomic"
)

// FilterStats accounts for one filtered scan: what the predicate selected,
// what it skipped, and what the selection saved in record bytes. On the PCR
// format the read plan writes them as it plans each record's read, from the
// index, so a drained scan's stats equal PlanFilter's price for it —
// Selected, Selected+Skipped = Total, RecordsSkipped, BytesRead = Bytes and
// BytesRead+BytesAvoided = FullBytes — with cache tiers or without. The
// baseline formats filter after the read and report zero byte savings.
//
// The stats are written while the scan runs, ahead of its consumer; read
// the fields directly only after the scan's iterator has been fully
// consumed. While a scan is mid-flight — or was left by an error or an
// early break — the plain fields are racy: use Snapshot, which loads them
// atomically.
type FilterStats struct {
	// Selected and Skipped count samples for and against the predicate.
	Selected int64
	Skipped  int64
	// RecordsSkipped counts records no byte of which was read because the
	// side index proved no sample matched.
	RecordsSkipped int64
	// BytesRead is the record bytes actually fetched; BytesAvoided is what
	// an unfiltered scan at the same quality would have fetched on top.
	BytesRead    int64
	BytesAvoided int64
}

// add accounts for one planned record of the PCR format: its selected and
// skipped samples, the bytes its read moves and those it avoids. A record
// nothing of which is selected is one skipped whole.
func (s *FilterStats) add(selected, skipped int, read, avoided int64) {
	atomic.AddInt64(&s.Selected, int64(selected))
	atomic.AddInt64(&s.Skipped, int64(skipped))
	atomic.AddInt64(&s.BytesRead, read)
	atomic.AddInt64(&s.BytesAvoided, avoided)
	if selected == 0 {
		atomic.AddInt64(&s.RecordsSkipped, 1)
	}
}

// Snapshot returns a consistent-enough copy of the stats, loading each
// field atomically. It is the only safe way to observe a scan that is
// still running: prefetch workers update the counters concurrently, and
// a plain field read while they do so is a data race. Each field is
// individually exact; the set may straddle an in-flight sample.
func (s *FilterStats) Snapshot() FilterStats {
	return FilterStats{
		Selected:       atomic.LoadInt64(&s.Selected),
		Skipped:        atomic.LoadInt64(&s.Skipped),
		RecordsSkipped: atomic.LoadInt64(&s.RecordsSkipped),
		BytesRead:      atomic.LoadInt64(&s.BytesRead),
		BytesAvoided:   atomic.LoadInt64(&s.BytesAvoided),
	}
}

// ScanOption configures one Scan or ScanEncoded call.
type ScanOption func(*scanConfig) error

type scanConfig struct {
	pred  Predicate
	stats *FilterStats
}

// WithFilter restricts a scan to the samples the predicate selects,
// preserving storage order among them. On PCR datasets the selection is
// pushed into the read plan through the sample-offset side index: records
// with no matching sample are not read at all, and — when the scan runs
// without cache tiers — partially matching records are fetched as sparse
// byte ranges covering only the selected samples (remotely, a single
// pushdown request moving only those bytes). With cache tiers the full
// prefix is read through the cache (caches are prefix-shaped) and filtering
// happens afterwards; on the baseline formats filtering likewise happens
// after the read. Every path yields byte-identical samples, and a drained
// PCR scan's FilterStats equal PlanFilter's price, tiers or not. A PCR scan
// reads up to four records ahead of its consumer (see ScanEncoded), and
// FilterStats counts a record as its read is planned: after an early break
// the stats may include up to four records that were planned — BytesRead
// counted — and never yielded.
func WithFilter(pred Predicate) ScanOption {
	return func(sc *scanConfig) error {
		if pred == nil {
			return fmt.Errorf("pcr: WithFilter: nil predicate")
		}
		sc.pred = pred
		return nil
	}
}

// WithFilterStats points a filtered scan's accounting at stats, which is
// reset when the scan starts and valid once its iterator has been fully
// consumed. Requires WithFilter.
func WithFilterStats(stats *FilterStats) ScanOption {
	return func(sc *scanConfig) error {
		if stats == nil {
			return fmt.Errorf("pcr: WithFilterStats: nil stats")
		}
		sc.stats = stats
		return nil
	}
}

func applyScanOptions(opts []ScanOption) (*scanConfig, error) {
	sc := &scanConfig{}
	for _, o := range opts {
		if err := o(sc); err != nil {
			return nil, err
		}
	}
	if sc.stats != nil && sc.pred == nil {
		return nil, fmt.Errorf("pcr: WithFilterStats requires WithFilter")
	}
	if sc.stats == nil {
		// A filtered scan always counts; WithFilterStats only says where.
		sc.stats = new(FilterStats)
	} else {
		// Stored atomically: a Snapshot may already be polling.
		for _, field := range []*int64{&sc.stats.Selected, &sc.stats.Skipped, &sc.stats.RecordsSkipped, &sc.stats.BytesRead, &sc.stats.BytesAvoided} {
			atomic.StoreInt64(field, 0)
		}
	}
	return sc, nil
}

// FilterPlan is the price of a filtered scan at one quality: how many
// samples the predicate selects and how many record bytes the scan moves
// versus a full scan — the read plan's own accounting, computed from the
// index without touching a record file. A drained Scan or ScanEncoded with
// the same predicate and quality on the same dataset reports it exactly in
// its FilterStats, with cache tiers mounted or not.
type FilterPlan struct {
	// Selected of Total samples match the predicate.
	Selected int
	Total    int
	// RecordsSkipped of Records contain no matching sample and are not
	// read at all.
	Records        int
	RecordsSkipped int
	// Bytes is the filtered scan's read volume: the coalesced selected
	// ranges of a sparse read, a whole prefix where a cache tier is mounted
	// or every sample of a record is selected. FullBytes is the unfiltered
	// scan's (SizeAtQuality).
	Bytes     int64
	FullBytes int64
}

// PlanFilter prices Scan(WithFilter(pred)) at quality q: it walks the scan's
// read plan over storage order without issuing a read, so the plan equals
// the drained scan's FilterStats (see FilterPlan). It requires the PCR
// format.
func (d *Dataset) PlanFilter(pred Predicate, q int) (FilterPlan, error) {
	if pred == nil {
		return FilterPlan{}, fmt.Errorf("pcr: PlanFilter: nil predicate")
	}
	qq, err := d.resolveQuality(q)
	if err != nil {
		return FilterPlan{}, err
	}
	if d.pcr == nil {
		return FilterPlan{}, fmt.Errorf("pcr: PlanFilter on %s format: filtering is post-read, no plan to compute", d.cfg.format.Name())
	}
	var st FilterStats
	plan := d.scanPlan(qq, pred, &st)
	for read, err := plan.next(); read != nil || err != nil; read, err = plan.next() {
		if err != nil {
			return FilterPlan{}, err
		}
	}
	return FilterPlan{
		Selected: int(st.Selected), Total: int(st.Selected + st.Skipped),
		Records: d.NumRecords(), RecordsSkipped: int(st.RecordsSkipped),
		Bytes: st.BytesRead, FullBytes: st.BytesRead + st.BytesAvoided,
	}, nil
}

// filterSeq composes a pure selection stage onto an encoded scan — the
// relational-algebra view of WithFilter, usable over any sample stream.
func filterSeq(seq iter.Seq2[Sample, error], pred Predicate, stats *FilterStats) iter.Seq2[Sample, error] {
	return func(yield func(Sample, error) bool) {
		for s, err := range seq {
			if err != nil {
				yield(s, err)
				return
			}
			if !pred.Matches(s.ID, s.Label) {
				atomic.AddInt64(&stats.Skipped, 1)
				continue
			}
			atomic.AddInt64(&stats.Selected, 1)
			if !yield(s, nil) {
				return
			}
		}
	}
}
