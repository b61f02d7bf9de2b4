package train

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/jpegc"
	"repro/internal/synth"
)

// PCRSet is a synthetic dataset materialized as in-memory PCR records, with
// per-scan-group feature caches. The same PCRSet serves every scan group and
// every task — which is the point of the format.
type PCRSet struct {
	Profile synth.Profile
	// NumGroups is the scan-group count (10 for color data).
	NumGroups int
	// ImagesPerRecord is the record batching factor used at build time.
	ImagesPerRecord int

	records [][]byte
	metas   []*core.RecordMeta

	// trainLabels[i] is the fine label of train sample i (record-major
	// order); testLabels likewise.
	trainLabels []int
	testLabels  []int

	// testJPEG holds the encoded test images (tests are decoded at a scan
	// group too, so quality affects evaluation consistently).
	testProg [][]byte
	testIdx  []*jpegc.StreamIndex

	mu         sync.Mutex
	trainFeats map[int][][]float64 // scan group -> per-sample features
	testFeats  map[int][][]float64

	// BaselineBytes is the total size of the original baseline JPEG
	// dataset; PCRBytes the total PCR record bytes.
	BaselineBytes int64
	PCRBytes      int64
}

// BuildPCRSet encodes the dataset's train split into PCR records (via
// baseline JPEG at the profile's quality, then lossless progressive
// transcode inside WriteRecord) and prepares the test split.
func BuildPCRSet(ds *synth.Dataset, imagesPerRecord int) (*PCRSet, error) {
	return BuildPCRSetGrouped(ds, imagesPerRecord, 0)
}

// BuildPCRSetGrouped is BuildPCRSet with scan-group coalescing: scanGroups
// > 0 buckets the progressive scans into that many groups per record (see
// core.RecordOptions.ScanGroups).
func BuildPCRSetGrouped(ds *synth.Dataset, imagesPerRecord, scanGroups int) (*PCRSet, error) {
	if imagesPerRecord <= 0 {
		imagesPerRecord = 32
	}
	set := &PCRSet{
		Profile:         ds.Profile,
		ImagesPerRecord: imagesPerRecord,
		trainFeats:      make(map[int][][]float64),
		testFeats:       make(map[int][][]float64),
	}
	var pending []core.Sample
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		var buf bytes.Buffer
		meta, err := core.WriteRecordOpts(&buf, pending, &core.RecordOptions{ScanGroups: scanGroups})
		if err != nil {
			return err
		}
		set.records = append(set.records, buf.Bytes())
		set.metas = append(set.metas, meta)
		set.PCRBytes += int64(buf.Len())
		if meta.NumGroups > set.NumGroups {
			set.NumGroups = meta.NumGroups
		}
		pending = pending[:0]
		return nil
	}
	for _, s := range ds.Train {
		// Real photographic datasets are stored with 4:2:0 chroma
		// subsampling; match that so scan-group byte splits are realistic.
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: ds.Profile.JPEGQuality, Subsample420: true})
		if err != nil {
			return nil, fmt.Errorf("train: encoding sample %d: %w", s.ID, err)
		}
		set.BaselineBytes += int64(len(data))
		pending = append(pending, core.Sample{ID: int64(s.ID), Label: int64(s.Label), JPEG: data})
		set.trainLabels = append(set.trainLabels, s.Label)
		if len(pending) == imagesPerRecord {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	for _, s := range ds.Test {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: ds.Profile.JPEGQuality, Progressive: true, Subsample420: true})
		if err != nil {
			return nil, fmt.Errorf("train: encoding test sample %d: %w", s.ID, err)
		}
		idx, err := jpegc.IndexScans(data)
		if err != nil {
			return nil, err
		}
		set.testProg = append(set.testProg, data)
		set.testIdx = append(set.testIdx, idx)
		set.testLabels = append(set.testLabels, s.Label)
	}
	if len(set.records) == 0 {
		return nil, fmt.Errorf("train: empty train split")
	}
	return set, nil
}

// NumRecords returns the record count.
func (s *PCRSet) NumRecords() int { return len(s.records) }

// NumTrain returns the train sample count.
func (s *PCRSet) NumTrain() int { return len(s.trainLabels) }

// RecordBytesAtGroup returns, for each record, the prefix bytes a reader
// fetches at scan group g — the loader simulation's input.
func (s *PCRSet) RecordBytesAtGroup(g int) ([]int64, error) {
	out := make([]int64, len(s.metas))
	for i, m := range s.metas {
		gg := g
		if gg > m.NumGroups {
			gg = m.NumGroups
		}
		n, err := m.PrefixLen(gg)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// ImagesPerRecordList returns each record's image count.
func (s *PCRSet) ImagesPerRecordList() []int {
	out := make([]int, len(s.metas))
	for i, m := range s.metas {
		out[i] = len(m.Samples)
	}
	return out
}

// MeanImageBytesAtGroup returns E[s(x, g)]: mean bytes per image when
// reading at scan group g (record overhead amortized in).
func (s *PCRSet) MeanImageBytesAtGroup(g int) (float64, error) {
	rb, err := s.RecordBytesAtGroup(g)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, b := range rb {
		total += b
	}
	return float64(total) / float64(s.NumTrain()), nil
}

// TrainFeatures returns the per-sample feature vectors of the train split
// decoded at scan group g, computing and caching them on first use.
func (s *PCRSet) TrainFeatures(g int) ([][]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.trainFeats[g]; ok {
		return f, nil
	}
	if g < 1 || g > s.NumGroups {
		return nil, fmt.Errorf("train: scan group %d out of range [1,%d]", g, s.NumGroups)
	}
	feats := make([][]float64, 0, s.NumTrain())
	for r, meta := range s.metas {
		gg := g
		if gg > meta.NumGroups {
			gg = meta.NumGroups
		}
		need, err := meta.PrefixLen(gg)
		if err != nil {
			return nil, err
		}
		// One pass splices every sample's stream out of the prefix.
		var decodeErr error
		err = meta.SampleJPEGs(s.records[r][:need], gg, nil, 0, nil, func(i int, stream []byte) {
			if decodeErr != nil {
				return
			}
			img, err := jpegc.Decode(stream)
			if err != nil {
				decodeErr = fmt.Errorf("train: record %d sample %d at group %d: %w", r, i, gg, err)
				return
			}
			feats = append(feats, Featurize(img))
		})
		if err != nil {
			return nil, fmt.Errorf("train: record %d at group %d: %w", r, gg, err)
		}
		if decodeErr != nil {
			return nil, decodeErr
		}
	}
	s.trainFeats[g] = feats
	return feats, nil
}

// TestFeatures returns the test split's features at scan group g.
func (s *PCRSet) TestFeatures(g int) ([][]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.testFeats[g]; ok {
		return f, nil
	}
	if g < 1 || g > s.NumGroups {
		return nil, fmt.Errorf("train: scan group %d out of range [1,%d]", g, s.NumGroups)
	}
	feats := make([][]float64, 0, len(s.testProg))
	for i, data := range s.testProg {
		idx := s.testIdx[i]
		gg := g
		if gg > len(idx.Scans) {
			gg = len(idx.Scans)
		}
		trunc, err := jpegc.TruncateToScan(data, idx, gg)
		if err != nil {
			return nil, err
		}
		img, err := jpegc.Decode(trunc)
		if err != nil {
			return nil, fmt.Errorf("train: test sample %d at group %d: %w", i, gg, err)
		}
		feats = append(feats, Featurize(img))
	}
	s.testFeats[g] = feats
	return feats, nil
}

// SampleSizes reports one train image's storage footprint inside its
// record: its share of the record's framing — the metadata section and the
// scan groups' preambles, which the record's images share — plus per-scan-
// group byte lengths of its own slices.
type SampleSizes struct {
	HeaderLen int64
	GroupLens []int64
}

// SampleGroupLens returns the per-image size breakdown of every train
// sample in record-major order (the Figure 16/31 data). A record's framing
// is split evenly over its images, so that a record's sizes add up to its
// file.
func (s *PCRSet) SampleGroupLens() []SampleSizes {
	var out []SampleSizes
	for _, m := range s.metas {
		shared, n := m.TotalLen(), int64(len(m.Samples))
		for i := range m.Samples {
			for _, l := range m.Samples[i].GroupLens {
				shared -= l
			}
		}
		for i := range m.Samples {
			k := int64(i)
			out = append(out, SampleSizes{
				HeaderLen: shared*(k+1)/n - shared*k/n,
				GroupLens: append([]int64(nil), m.Samples[i].GroupLens...),
			})
		}
	}
	return out
}

// RecordRanges returns each record's [start, end) sample-index range in the
// record-major train ordering. Mixture training draws a scan group per
// record (records are the unit of read), so it needs this mapping.
func (s *PCRSet) RecordRanges() [][2]int {
	out := make([][2]int, len(s.metas))
	start := 0
	for i, m := range s.metas {
		out[i] = [2]int{start, start + len(m.Samples)}
		start += len(m.Samples)
	}
	return out
}

// TrainLabels returns the fine labels of the train split, remapped by task.
func (s *PCRSet) TrainLabels(task synth.Task) []int {
	out := make([]int, len(s.trainLabels))
	for i, f := range s.trainLabels {
		out[i] = task.Map(f)
	}
	return out
}

// TestLabels returns the remapped test labels.
func (s *PCRSet) TestLabels(task synth.Task) []int {
	out := make([]int, len(s.testLabels))
	for i, f := range s.testLabels {
		out[i] = task.Map(f)
	}
	return out
}
