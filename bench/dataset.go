package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jpegc"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/pcr"
)

// The bench-v1 dataset. Every workload and the traced run read these bytes,
// so every number the benchmark prints refers to the same input.
const (
	imageSize       = 128
	jpegQuality     = 92 // synth.ImageNet's, Table 1 of the paper
	imagesPerRecord = 32

	q2 = 2 // coarse quality: the working set that fits the memory tier
	q5 = 5 // the paper's operating point, about a third of the bytes

	serverHotCache = 256 << 20 // holds every record: the server side is warm
)

// parallelism is P: decode workers, and readers in serve_encoded. One process
// generates the load, so it never uses more workers than the box has cores.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// contentSeed fixes the pixels of bench-v1. The images are the same whatever
// --seed says, and so is which of them share a record, so that byte counts
// are exact and decode work is identical from run to run; --seed decides how
// they are laid out and visited: which record each group of 32 becomes, the
// order of the images within it, and the order the Loader shuffles records
// into.
const contentSeed = 1

// filterLabels are the two of the twenty labels filtered_pushdown selects,
// about a tenth of the samples, some in every record.
var filterLabels = [2]int64{3, 11}

// input is what --seed makes: the baseline JPEGs a user would hand to
// pcr.Create, in the seed's order. The program under test sees nothing else
// of the seed.
type input struct {
	seed     int64
	samples  []pcr.Sample // ID = position, Label, baseline JPEG
	bytes    int64        // Σ len(JPEG)
	yard     yardstick
	encodeUS float64 // jpegc.Encode per image, for the per-layer table
}

// generate builds the input: synth.ImageNet at 128×128, baseline-encoded at
// quality 92 with 4:2:0 chroma, permuted by the seed. images is the dataset
// size (synth keeps four fifths of what it renders as the train split).
func generate(seed int64, images int) (*input, error) {
	p := synth.ImageNet
	p.ImageSize = imageSize
	p.NumImages = images * 5 / 4
	ds, err := synth.Generate(p, contentSeed)
	if err != nil {
		return nil, err
	}
	if len(ds.Train) != images {
		return nil, fmt.Errorf("bench: synth made %d train images, want %d", len(ds.Train), images)
	}
	in := &input{seed: seed, samples: make([]pcr.Sample, images)}
	// order[i] is where synth's i-th image lands: groups of imagesPerRecord
	// move as a whole and are shuffled inside.
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, images)
	for _, group := range rng.Perm((images + imagesPerRecord - 1) / imagesPerRecord) {
		first := group * imagesPerRecord
		for _, k := range rng.Perm(min(imagesPerRecord, images-first)) {
			order = append(order, first+k)
		}
	}
	start := time.Now()
	for i, s := range ds.Train {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: jpegQuality, Subsample420: true})
		if err != nil {
			return nil, fmt.Errorf("bench: encoding input %d: %w", i, err)
		}
		in.samples[order[i]] = pcr.Sample{ID: int64(order[i]), Label: int64(s.Label), JPEG: data}
		in.bytes += int64(len(data))
		if len(in.yard.inputs) < yardstickImages {
			in.yard.inputs = append(in.yard.inputs, data)
		}
	}
	in.encodeUS = float64(time.Since(start).Microseconds()) / float64(images)
	return in, nil
}

func (in *input) filter() pcr.Predicate { return pcr.LabelIn(filterLabels[0], filterLabels[1]) }

// ingest writes samples as a PCR dataset at dir through the facade.
func ingest(dir string, samples []pcr.Sample) error {
	w, err := createDataset(dir)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if err := w.Append(s); err != nil {
			return err
		}
	}
	return w.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// server is a serve.Server on a real loopback listener.
type server struct {
	srv      *serve.Server
	ds       *core.Dataset // set when the server does not own its dataset
	hs       *http.Server
	url      string
	served   chan error
	inflight atomic.Int64
}

// startServer serves the dataset at dir. With a tracer the server is built
// over a timed backend and sits behind a timing handler, which is how the
// serving layer's time is taken from outside it.
func startServer(dir string, tr *tracer) (*server, error) {
	s := &server{served: make(chan error, 1)}
	opts := &serve.Options{CacheBytes: serverHotCache}
	var handler http.Handler
	if tr == nil {
		srv, err := serve.New(dir, opts)
		if err != nil {
			return nil, err
		}
		s.srv, handler = srv, srv
	} else {
		ds, err := core.OpenDataset(dir)
		if err != nil {
			return nil, err
		}
		ds.SetBackend(&timedBackend{inner: ds.Backend(), tr: tr, name: spanBackingRead})
		srv, err := serve.NewFromDataset(ds, opts)
		if err != nil {
			ds.Close()
			return nil, err
		}
		s.srv, s.ds, handler = srv, ds, timedHandler(srv, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeData()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	// The server counts the bytes of a reply after writing them, so a
	// client can hold a reply the counter does not show yet. Counting the
	// handlers in flight lets wireBytes wait until the counter is exact.
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		handler.ServeHTTP(w, r)
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// wireBytes returns the record payload bytes served so far, once no handler
// is still running.
func (s *server) wireBytes() int64 {
	for s.inflight.Load() != 0 {
		runtime.Gosched()
	}
	return s.srv.Stats().BytesServed
}

func (s *server) closeData() error {
	err := s.srv.Close()
	if s.ds != nil {
		if derr := s.ds.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	if cerr := s.closeData(); err == nil {
		err = cerr
	}
	return err
}

// digest identifies one delivered sample: its identity and its exact bytes.
type digest [sha256.Size]byte

func sampleDigest(s pcr.Sample) digest {
	h := sha256.New()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.ID))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.Label))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(s.JPEG)))
	h.Write(hdr[:])
	h.Write(s.JPEG)
	return digest(h.Sum(nil))
}

// env is bench-v1 set up and ready to read: the PCR directory, a server over
// it, and the two cacheless datasets most workloads read through.
type env struct {
	in     *input
	plan   plan
	work   string // scratch directory; everything the benchmark writes is under it
	dir    string
	server *server
	local  *pcr.Dataset // pcr.Open(dir), no caches
	remote *pcr.Dataset // pcr.OpenRemote(server), no caches, hedging off

	stored int64            // bytes of dir
	size   map[int]int64    // SizeAtQuality, by quality
	golden map[int][]digest // local cacheless ScanEncoded, by quality then ID
}

// remoteOptions are what every remote open shares: P decode workers, and no
// hedging, so that every byte the server counts was asked for exactly once.
func remoteOptions(extra ...pcr.Option) []pcr.Option {
	return append([]pcr.Option{pcr.WithPrefetchWorkers(parallelism()), pcr.WithHedgeDelay(-1)}, extra...)
}

// setUp is the system's set-up as setup_s times it: ingest the input into a
// fresh directory, start the server, open the local and the remote dataset.
func setUp(in *input, pl plan, work string) (*env, error) {
	dir, err := os.MkdirTemp(work, "bench-v1-")
	if err != nil {
		return nil, err
	}
	e := &env{in: in, plan: pl, work: work, dir: dir}
	if err := ingest(dir, in.samples); err != nil {
		return nil, e.closeAfter(err)
	}
	if e.server, err = startServer(dir, nil); err != nil {
		return nil, e.closeAfter(err)
	}
	if e.local, err = pcr.Open(dir, pcr.WithPrefetchWorkers(parallelism())); err != nil {
		return nil, e.closeAfter(err)
	}
	if e.remote, err = pcr.OpenRemote(e.server.url, remoteOptions()...); err != nil {
		return nil, e.closeAfter(err)
	}
	return e, nil
}

func (e *env) closeAfter(err error) error {
	e.close()
	return err
}

// close releases everything setUp made and removes the directory.
func (e *env) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if e.remote != nil {
		keep(e.remote.Close())
	}
	if e.local != nil {
		keep(e.local.Close())
	}
	if e.server != nil {
		keep(e.server.stop())
	}
	keep(os.RemoveAll(e.dir))
	return first
}

// group is the scan group the facade's quality q reads on bench-v1, whose
// records all store every group.
func (e *env) group(q int) int {
	if q == pcr.Full {
		return e.local.Qualities()
	}
	return q
}
