package pcr

import (
	"image"
	"slices"
	"unsafe"

	"repro/internal/core"
)

// What the external test package needs of the internals to write a serial
// reference for the pipeline and to put a misbehaving store under it.

// ReadAhead is the pipeline's read-ahead depth.
const ReadAhead = readAhead

// RunLen is the samples of a baseline format's stream the pipeline hands
// over at once.
const RunLen = runLen

// EpochOrder is the record visit order of an epoch.
func (l *Loader) EpochOrder(epoch int) []int { return l.epochOrder(epoch) }

// EpochSeed is the seed an epoch's order is drawn with.
func (l *Loader) EpochSeed(epoch int) int64 { return l.epochSeed(epoch) }

// SelectedCount is how many samples of record i the side index says pred
// selects.
func (d *Dataset) SelectedCount(i int, pred Predicate) int {
	re, err := d.pcr.record(i)
	if err != nil {
		panic(err)
	}
	_, nsel := matchSelection(pred, re.SampleIDs, re.SampleLabels)
	return nsel
}

// ReadRecordFiltered is one filtered record read as the Loader issues it: a
// plan of one record, carried out.
func (d *Dataset) ReadRecordFiltered(i, q int, pred Predicate) (samples []Sample, bytesRead, bytesAvoided int64, err error) {
	return d.readFiltered(i, q, pred, 0)
}

// ReadRecordFilteredFrom is ReadRecordFiltered resumed at the from-th sample
// pred selects.
func (d *Dataset) ReadRecordFilteredFrom(i, q int, pred Predicate, from int) ([]Sample, error) {
	samples, _, _, err := d.readFiltered(i, q, pred, from)
	return samples, err
}

func (d *Dataset) readFiltered(i, q int, pred Predicate, from int) (samples []Sample, bytesRead, bytesAvoided int64, err error) {
	plan, err := d.onePlan(i, q)
	if err != nil {
		return nil, 0, 0, err
	}
	plan.filter = pred
	plan.skip = from
	read, ok, err := plan.next()
	price := plan.price
	if !ok {
		return nil, price.Bytes, price.FullBytes - price.Bytes, err
	}
	samples, err = d.pcr.readOwned(&read)
	return samples, price.Bytes, price.FullBytes - price.Bytes, err
}

// WrapBackend puts wrap(backend) under a PCR dataset's reads: above its
// disk tier, when it has one (see OpenWrapped).
func (d *Dataset) WrapBackend(wrap func(core.Backend) core.Backend) {
	ds := d.pcr.ds
	ds.SetBackend(wrap(ds.Backend()))
}

// OpenWrapped is Open of a local PCR dataset with wrap(backend) beneath
// its cache tiers: the disk tier, when there is one, fills from it.
func OpenWrapped(dir string, wrap func(core.Backend) core.Backend, opts ...Option) (*Dataset, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	ds, err := core.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	ds.SetBackend(wrap(ds.Backend()))
	r, err := newPCRReader(ds, cfg)
	if err != nil {
		ds.Close()
		return nil, err
	}
	return newDataset(r, cfg, nil), nil
}

// OnRecycle has f see, and change if it likes, every frame l's epochs hand
// back to their decode workers, before the workers can have it.
func (l *Loader) OnRecycle(f func(image.Image)) { l.recycled = f }

// ReadRecordFrom is ReadRecordEncoded resumed at sample from: a plan of one
// record whose resume prefix ends inside it, carried out.
func (d *Dataset) ReadRecordFrom(i, q, from int) ([]Sample, error) {
	plan, err := d.onePlan(i, q)
	if err != nil {
		return nil, err
	}
	plan.skip = from
	read, ok, err := plan.next()
	if !ok {
		return nil, err
	}
	return d.pcr.readOwned(&read)
}

// FreePrefixes is the backing arrays of the prefix buffers on the reader's
// free list, in list order; the list is left as it was.
func (d *Dataset) FreePrefixes() []*byte {
	bufs := d.pcr.tiers.Free()
	ptrs := make([]*byte, len(bufs))
	for i, b := range bufs {
		ptrs[i] = unsafe.SliceData(b)
	}
	return ptrs
}

// HoldRecord reads record i whole through the reader's tier stack and
// keeps the read leased until the returned release is called.
func (d *Dataset) HoldRecord(i int) (release func(), err error) {
	re, err := d.pcr.record(i)
	if err != nil {
		return nil, err
	}
	b, err := d.pcr.tiers.Read(i, 0, re.Prefixes[len(re.Prefixes)-1])
	if err != nil {
		return nil, err
	}
	return func() { d.pcr.tiers.Release(b) }, nil
}

// SparseSamples is the IDs of the samples of every record that a read
// filtered by pred gathers sparsely, as its plan decides (recordPlan).
func (d *Dataset) SparseSamples(pred Predicate) map[int64]bool {
	out := make(map[int64]bool)
	for i := range d.pcr.records {
		plan, err := d.onePlan(i, Full)
		if err != nil {
			panic(err)
		}
		plan.filter = pred
		read, ok, err := plan.next()
		if err != nil {
			panic(err)
		}
		if ok && read.sparse {
			for _, id := range d.pcr.records[i].SampleIDs {
				out[id] = true
			}
		}
	}
	return out
}

// LeaseEvent is one take or give of a record lease as OnLease sees it: the
// lease (for its identity) and, on a give, the samples it holds and the
// stream buffers it keeps that its read spliced into, whole.
type LeaseEvent struct {
	Lease   any
	Give    bool
	Samples []Sample
	Streams [][]byte
}

// OnLease has f see every take and give of d's record leases, and change
// the stream buffers of a give if it likes, before a read can have them.
// Set it before d is read; f may be called from several goroutines at once.
func (d *Dataset) OnLease(f func(LeaseEvent)) {
	d.pcr.leased = func(l *recordLease, give bool) {
		ev := LeaseEvent{Lease: l, Give: give}
		if give {
			ev.Samples = slices.Clone(l.samples)
			for _, b := range l.streams[:l.used] {
				if b != nil {
					ev.Streams = append(ev.Streams, b[:cap(b)])
				}
			}
		}
		f(ev)
	}
}
