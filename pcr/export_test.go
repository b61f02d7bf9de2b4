package pcr

import (
	"image"
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
	rr := d.pcr.readRecord(&read, false)
	return rr.samples, price.Bytes, price.FullBytes - price.Bytes, rr.err
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
	rr := d.pcr.readRecord(&read, false)
	return rr.samples, rr.err
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

// OnRecycleStreams has f see, and change if it likes, the whole of every
// stream buffer l's epochs hand back to their record reads, before a read
// can have it.
func (l *Loader) OnRecycleStreams(f func([]byte)) { l.recycledStreams = f }

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

// StreamBuffersMade counts the stream buffers l's epochs have made rather
// than taken from the buffers handed back.
func (l *Loader) StreamBuffersMade() int64 { return l.streams.Made() }

// StreamBuffersListed is the stream buffers on l's list, oldest first.
func (l *Loader) StreamBuffersListed() [][]byte { return l.streams.Free() }
