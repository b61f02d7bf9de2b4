package pcr

import (
	"image"

	"repro/internal/core"
)

// What the external test package needs of the internals to write a serial
// reference for the pipeline and to put a misbehaving store under it.

// ReadAhead is the pipeline's read-ahead depth.
const ReadAhead = readAhead

// EpochOrder is the record visit order of an epoch.
func (l *Loader) EpochOrder(epoch int) []int { return l.epochOrder(epoch) }

// SelectedCount is how many samples of record i the side index says pred
// selects.
func (d *Dataset) SelectedCount(i int, pred Predicate) int {
	_, nsel, err := d.pcr.selection(i, pred)
	if err != nil {
		panic(err)
	}
	return nsel
}

// ReadRecordFiltered is one filtered record read as the Loader issues it.
func (d *Dataset) ReadRecordFiltered(i, q int, pred Predicate) (samples []Sample, bytesRead, bytesAvoided int64, err error) {
	qq, err := d.resolveQuality(q)
	if err != nil {
		return nil, 0, 0, err
	}
	sel, _, err := d.pcr.selection(i, pred)
	if err != nil {
		return nil, 0, 0, err
	}
	full, err := d.pcr.recordPrefixLen(i, qq)
	if err != nil {
		return nil, 0, 0, err
	}
	rr := d.pcr.readRecord(i, qq, sel)
	if rr.err != nil {
		return nil, 0, 0, rr.err
	}
	return rr.samples, rr.bytes, full - rr.bytes, nil
}

// WrapBackend puts wrap(backend) under a PCR dataset's reads.
func (d *Dataset) WrapBackend(wrap func(core.Backend) core.Backend) {
	ds := d.pcr.ds
	ds.SetBackend(wrap(ds.Backend()))
}

// OnRecycle has f see, and change if it likes, every frame l's epochs hand
// back to their decode workers, before the workers can have it.
func (l *Loader) OnRecycle(f func(image.Image)) { l.recycled = f }
