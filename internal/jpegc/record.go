package jpegc

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RecordCoder transcodes the images of one record together, so that what
// they have in common is coded once — the JPEG standard's abbreviated
// format, tables sent once for many images (T.81 Annex B.4–B.5).
//
// Every image is decoded to its coefficients and walked with the
// progressive script for its component count, as Transcode does. The symbol
// counts of all the record's images are then summed per script, scan and
// table; one optimal table is built for each sum; and every image's tokens
// are replayed through the shared tables. What comes back is the record's
// framing and its images' entropy-coded data, apart (CodedRecord). An
// image's stream is its header, then for each scan the scan's framing and
// the image's data of that scan, then EOI: an ordinary progressive JPEG
// whose coefficients are the input's. A record of one image is that image's
// Transcode, taken apart.
//
// A RecordCoder keeps its buffers from record to record, so that coding a
// record allocates almost nothing once it has seen one as large. The zero
// value is ready to use; a RecordCoder is not safe for concurrent use.
type RecordCoder struct {
	images  []recordImage
	workers []recordWorker
	scripts [2]sharedScript // by script class
	rec     CodedRecord
}

// CodedRecord is a record's images coded with shared tables. Its slices
// alias the RecordCoder that made it and are valid until its next Transcode.
type CodedRecord struct {
	// Headers are the distinct stream headers of the images, SOI through
	// SOF, in order of first use.
	Headers []CodedHeader
	// Scripts[k][j] is the framing of scan j of script k: the DHT segment
	// of the tables the record's images share for that scan (none for a DC
	// refinement) and its SOS header.
	Scripts [][][]byte
	// Images are the inputs' entropy-coded data, in input order.
	Images []CodedImage
}

// CodedHeader is one distinct stream header and the scan script the images
// that use it are coded with.
type CodedHeader struct {
	JPEG   []byte
	Script int
}

// CodedImage is one input: the index of its header, and each scan's
// entropy-coded data — Scans[j] follows the framing of scan j of its
// header's script.
type CodedImage struct {
	Header int
	Scans  [][]byte
}

// ImageError is the error of a record whose input Index failed to code.
type ImageError struct {
	Index int
	Err   error
}

func (e *ImageError) Error() string { return fmt.Sprintf("jpegc: image %d: %v", e.Index, e.Err) }

func (e *ImageError) Unwrap() error { return e.Err }

// scriptLayout is a scan script laid out for pooling: the tables each scan
// codes through and where their counters start among the script's.
type scriptLayout struct {
	scans   []ScanSpec
	tables  [][]int // per scan, in DHT order
	first   []int   // per scan, its first table's counter
	ntables int
}

func layoutOf(scans []ScanSpec) scriptLayout {
	l := scriptLayout{scans: scans}
	for _, scan := range scans {
		t := scanTables(nil, scan)
		l.tables = append(l.tables, t)
		l.first = append(l.first, l.ntables)
		l.ntables += len(t)
	}
	return l
}

// layouts are the two scripts by class: grayscale, then colour.
var layouts = [2]scriptLayout{layoutOf(grayScript), layoutOf(colorScript)}

func scriptClass(numComps int) int {
	if numComps == 1 {
		return 0
	}
	return 1
}

// recordImage is one input's state between the passes of a Transcode.
type recordImage struct {
	class  int
	header []byte
	toks   []uint32 // every scan's tokens, back to back
	ends   []int    // ends[j]: where scan j's tokens end in toks
	data   []byte   // every scan's entropy-coded data, back to back
	scans  [][]byte // per scan, its data
	err    error
}

// recordWorker is one goroutine's symbol counts, per class and table.
type recordWorker struct {
	counts [2][]freqCounter
	used   [2]bool
}

// sharedScript is one class's shared tables and the framing made of them.
type sharedScript struct {
	counts  []freqCounter // summed over the record
	specs   []huffSpec
	enc     [][4]huffEncoder // per scan, by table index
	framing []byte           // every scan's DHT + SOS, back to back
	scans   [][]byte         // per scan, its framing
}

// Transcode codes inputs — baseline or progressive JPEG streams — as one
// record. When inputs fail, the error is an *ImageError for the first of
// them in input order.
func (rc *RecordCoder) Transcode(inputs [][]byte) (*CodedRecord, error) {
	n := len(inputs)
	for len(rc.images) < n {
		rc.images = append(rc.images, recordImage{})
	}
	imgs := rc.images[:n]
	procs := min(runtime.GOMAXPROCS(0), n)
	for len(rc.workers) < procs {
		rc.workers = append(rc.workers, recordWorker{})
	}
	for w := range rc.workers {
		rc.workers[w].used = [2]bool{}
	}

	// Pass 1: every image decoded, sealed and walked, its symbols counted
	// by the worker that walked it.
	parallel(procs, n, func(w, i int) { imgs[i].err = imgs[i].walk(&rc.workers[w], inputs[i]) })
	for i := range imgs {
		if err := imgs[i].err; err != nil {
			return nil, &ImageError{Index: i, Err: err}
		}
	}

	// The shared tables: each class's counts summed, one table built per
	// scan and slot, and each scan's framing made of them.
	var present [2]bool
	for i := range imgs {
		present[imgs[i].class] = true
	}
	for class, ok := range present {
		if ok {
			if err := rc.scripts[class].build(&layouts[class], rc.workers[:procs], class); err != nil {
				return nil, err
			}
		}
	}

	// Pass 2: every image's tokens replayed through its class's tables.
	parallel(procs, n, func(_, i int) { imgs[i].emit(&rc.scripts[imgs[i].class]) })

	rec := &rc.rec
	rec.Headers, rec.Scripts = rec.Headers[:0], rec.Scripts[:0]
	rec.Images = resize(rec.Images, n)
	script := [2]int{-1, -1} // index in rec.Scripts, by class
	for i := range imgs {
		img := &imgs[i]
		h := 0
		for h < len(rec.Headers) && !bytes.Equal(rec.Headers[h].JPEG, img.header) {
			h++
		}
		if h == len(rec.Headers) {
			if script[img.class] < 0 {
				script[img.class] = len(rec.Scripts)
				rec.Scripts = append(rec.Scripts, rc.scripts[img.class].scans)
			}
			rec.Headers = append(rec.Headers, CodedHeader{JPEG: img.header, Script: script[img.class]})
		}
		rec.Images[i] = CodedImage{Header: h, Scans: img.scans}
	}
	return rec, nil
}

// parallel runs do(w, i) for every i in [0, n) on procs goroutines, w
// numbering the goroutine.
func parallel(procs, n int, do func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}()
	}
	wg.Wait()
}

// walk decodes and seals data in a pooled scratch and records the tokens of
// every scan of its script, adding the symbols it counts to w's.
func (img *recordImage) walk(w *recordWorker, data []byte) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if err := s.decode(data); err != nil {
		return err
	}
	if err := s.seal(); err != nil {
		return err
	}
	img.class = scriptClass(s.geo.NumComps)
	img.header = appendHeaders(img.header[:0], &s.geo, true)
	lay := &layouts[img.class]
	counts := w.countsFor(img.class, lay.ntables)
	own := s.toks
	s.toks, img.ends = img.toks[:0], img.ends[:0]
	for j, scan := range lay.scans {
		for _, t := range lay.tables[j] {
			s.freq[t] = freqCounter{}
		}
		s.walkScan(scan)
		for k, t := range lay.tables[j] {
			counts[lay.first[j]+k].add(&s.freq[t])
		}
		img.ends = append(img.ends, len(s.toks))
	}
	img.toks, s.toks = s.toks, own
	return nil
}

// countsFor returns w's counters for class, zeroed on the record's first
// use of them.
func (w *recordWorker) countsFor(class, n int) []freqCounter {
	if !w.used[class] {
		w.used[class] = true
		w.counts[class] = resize(w.counts[class], n)
		clear(w.counts[class])
	}
	return w.counts[class]
}

func (f *freqCounter) add(g *freqCounter) {
	for i, c := range g {
		f[i] += c
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build sums the class's counts over the workers that counted any, builds
// the optimal table of each scan and slot from them, and lays out every
// scan's framing.
func (sh *sharedScript) build(lay *scriptLayout, workers []recordWorker, class int) error {
	sh.counts = resize(sh.counts, lay.ntables)
	clear(sh.counts)
	for w := range workers {
		if workers[w].used[class] {
			for k := range sh.counts {
				sh.counts[k].add(&workers[w].counts[class][k])
			}
		}
	}
	sh.specs = resize(sh.specs, lay.ntables)
	sh.enc = resize(sh.enc, len(lay.scans))
	sh.scans = resize(sh.scans, len(lay.scans))
	sh.framing = sh.framing[:0]
	var ends [16]int
	for j, scan := range lay.scans {
		var specs [4]*huffSpec
		for k, t := range lay.tables[j] {
			spec := &sh.specs[lay.first[j]+k]
			sh.counts[lay.first[j]+k].buildOptimal(spec)
			if err := sh.enc[j][t].build(spec); err != nil {
				return err
			}
			specs[t] = spec
		}
		sh.framing = appendDHT(sh.framing, lay.tables[j], &specs)
		sh.framing = appendSOS(sh.framing, scan, scan.isDC() && scan.Ah == 0, !scan.isDC())
		ends[j] = len(sh.framing)
	}
	start := 0
	for j := range sh.scans {
		sh.scans[j] = sh.framing[start:ends[j]:ends[j]]
		start = ends[j]
	}
	return nil
}

// emit replays the image's tokens through the shared tables, each scan
// flushed to a byte boundary of its own.
func (img *recordImage) emit(sh *sharedScript) {
	w := bitWriter{out: img.data[:0]}
	var ends [16]int
	from := 0
	for j, end := range img.ends {
		emitTokens(&w, img.toks[from:end], &sh.enc[j])
		from, ends[j] = end, len(w.out)
	}
	img.data = w.out
	img.scans = resize(img.scans, len(img.ends))
	start := 0
	for j := range img.scans {
		img.scans[j] = img.data[start:ends[j]:ends[j]]
		start = ends[j]
	}
}
