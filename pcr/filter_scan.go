package pcr

import "fmt"

// ScanOption configures one Scan or ScanEncoded call.
type ScanOption func(*scanConfig) error

type scanConfig struct {
	pred Predicate
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
// PCR scan yields and moves exactly what PlanFilter prices, tiers or not.
// Every scan reads ahead of its consumer (see ScanEncoded), so after an
// early break a PCR scan may have read up to four records it never yielded,
// a baseline scan a few runs of eight samples.
func WithFilter(pred Predicate) ScanOption {
	return func(sc *scanConfig) error {
		if pred == nil {
			return fmt.Errorf("pcr: WithFilter: nil predicate")
		}
		sc.pred = pred
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
	return sc, nil
}

// FilterPlan is the price of a filtered scan at one quality: how many
// samples the predicate selects and how many record bytes the scan moves
// versus a full scan — the read plan's own accounting, computed from the
// index without touching a record file, and the only account of a filtered
// read. A drained Scan or ScanEncoded with the same predicate and quality on
// the same dataset yields Selected samples and moves Bytes, with cache tiers
// mounted or not; a filtered Loader epoch reports the same sums over its
// plan in EpochStats.SkippedImages and BytesAvoided.
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
// read plan over storage order without issuing a read and returns what the
// plan added up (see FilterPlan). It requires the PCR format.
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
	plan := d.scanPlan(qq, pred)
	for {
		_, ok, err := plan.next()
		if err != nil {
			return FilterPlan{}, err
		}
		if !ok {
			return plan.price, nil
		}
	}
}
