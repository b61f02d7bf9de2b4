package train

import (
	"fmt"
	"math/rand"

	"repro/internal/iosim"
	"repro/internal/loader"
	"repro/internal/nn"
	"repro/internal/synth"
)

// Paper system constants used to scale the simulated storage so the
// bandwidth/compute balance matches the evaluation cluster (§4.1, §A.3):
// a 5-OSD Ceph HDD pool delivering ~425 MB/s against ~110 kB mean ImageNet
// images, with seeks ~3% of a record read.
const (
	paperClusterBandwidth = 425e6
	paperMeanImageBytes   = 110e3
	paperSeekSec          = 8e-3
	paperImagesPerRecord  = 1024
	paperDecodeProgSec    = 1.0 / 150 // PIL progressive decode (§A.5)
	paperOSDs             = 5
	paperLoaderThreads    = 6  // "4 to 8 threads" (§A.3)
	paperWorkers          = 10 // training nodes; decode fans out across their cores
)

// ScaledStorage builds a simulated cluster whose balance against the models
// matches the paper's testbed. meanImageBytes is the reproduction dataset's
// mean full-quality image size: bandwidth and seek scale by
// meanImageBytes/110kB so that images-per-second delivery and the
// seek-to-transfer ratio both match the paper.
func ScaledStorage(meanImageBytes float64, imagesPerRecord int) (*iosim.Cluster, error) {
	if meanImageBytes <= 0 {
		return nil, fmt.Errorf("train: non-positive mean image size")
	}
	scale := meanImageBytes / paperMeanImageBytes
	recScale := float64(imagesPerRecord) / paperImagesPerRecord
	spec := iosim.DeviceSpec{
		Name:         "scaled-ceph-hdd",
		BandwidthBps: paperClusterBandwidth / paperOSDs * scale,
		SeekSec:      paperSeekSec * recScale,
	}
	return iosim.NewCluster(spec, paperOSDs)
}

// RunConfig configures one training run.
type RunConfig struct {
	// Model selects the architecture/speed profile.
	Model nn.ModelProfile
	// Task remaps labels (multiclass, make-only, binary).
	Task synth.Task
	// ScanGroup is the quality to read; use the set's NumGroups for the
	// baseline. With a Controller it is the group training starts at (the
	// paper starts dynamic runs at full quality, §4.5).
	ScanGroup int
	// Epochs is the epoch budget.
	Epochs int
	// BatchSize is the SGD minibatch size.
	BatchSize int
	// Seed drives initialization and shuffling.
	Seed int64
	// Cluster simulates storage; nil builds ScaledStorage automatically.
	Cluster *iosim.Cluster
	// EvalEvery samples test accuracy every k epochs (default 1).
	EvalEvery int
	// Controller, when non-nil, picks the scan group at its tuning points
	// (§4.5, §A.6), and its probing is charged to the virtual clock. Nil
	// trains at ScanGroup throughout.
	Controller Controller
	// MixWeight enables mixture training (§A.6.3): each record's group is
	// the current one with probability weight/(weight+K−1), else one of the
	// K−1 other candidates uniformly. 0 disables mixing. The paper uses
	// weights 10 (~50%) and 100 (~85%) over K=10 groups.
	MixWeight float64
}

// lrDropAt lists the epoch fractions where the LR drops 10×, mirroring the
// paper's 30/60-of-90 schedule. The loss plateaus the drops leave are what
// the §4.5 heuristic detects.
var lrDropAt = [...]float64{1.0 / 3, 2.0 / 3}

// EpochPoint is one sample of a training curve.
type EpochPoint struct {
	Epoch int
	// TimeSec is the virtual wall-clock at the end of this epoch, relative
	// to the first epoch's start.
	TimeSec float64
	// TrainLoss is the epoch's mean training loss.
	TrainLoss float64
	// TestAcc is the test accuracy sampled at this epoch (NaN when not
	// sampled; the Sampled flag distinguishes).
	TestAcc float64
	Sampled bool
	// Group is the scan group in effect (a mixture's selected group).
	Group int
	// ImagesPerSec is the epoch's loading/training rate.
	ImagesPerSec float64
}

// RunResult is a full training curve.
type RunResult struct {
	Config RunConfig
	Points []EpochPoint
	// FinalAcc is the last sampled test accuracy.
	FinalAcc float64
	// TotalTimeSec is the virtual time of the whole run, probing included.
	TotalTimeSec float64
	// BytesPerEpoch is the storage bytes fetched by the last epoch.
	BytesPerEpoch int64
	// GroupSwitches counts controller decisions that changed the group.
	GroupSwitches int
}

// PaperLoader configures the paper's loading pipeline (§A.3) over the set's
// records, each read at the given prefix size: six prefetch threads, a
// queue of twelve records, progressive decode, and the model's per-image
// compute. Callers add the shuffle, start time and pass count.
func (s *PCRSet) PaperLoader(cluster *iosim.Cluster, model nn.ModelProfile, recordBytes []int64) loader.Config {
	return loader.Config{
		Cluster:         cluster,
		Threads:         paperLoaderThreads,
		QueueCap:        2 * paperLoaderThreads,
		RecordBytes:     recordBytes,
		ImagesPerRecord: s.ImagesPerRecordList(),
		// Each simulated loader stream stands for one stream per training
		// node, so decode parallelizes across the workers' CPU cores (the
		// paper notes near-linear data-parallel decode scaling, §A.5).
		DecodeSecPerImage:  paperDecodeProgSec / paperWorkers,
		ComputeSecPerImage: 1 / model.ClusterImagesPerSec,
	}
}

// Run trains the model: real SGD over decoded features, virtual time from
// the simulated pipeline. Without a Controller every record is read at
// ScanGroup; with one, the group changes at the controller's tuning points.
func Run(set *PCRSet, cfg RunConfig) (*RunResult, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: non-positive epochs")
	}
	if cfg.ScanGroup < 1 || cfg.ScanGroup > set.NumGroups {
		return nil, fmt.Errorf("train: scan group %d out of range [1,%d]", cfg.ScanGroup, set.NumGroups)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	labels := set.TrainLabels(cfg.Task)
	testLabels := set.TestLabels(cfg.Task)
	model, err := cfg.Model.Build(FeatureLen, cfg.Task.NumClasses, cfg.Seed)
	if err != nil {
		return nil, err
	}

	cluster := cfg.Cluster
	if cluster == nil {
		mean, err := set.MeanImageBytesAtGroup(set.NumGroups)
		if err != nil {
			return nil, err
		}
		cluster, err = ScaledStorage(mean, set.ImagesPerRecord)
		if err != nil {
			return nil, err
		}
	}

	groups := candidateGroups(set.NumGroups)
	ranges := set.RecordRanges()
	bytesAt := map[int][]int64{}
	recordBytes := make([]int64, set.NumRecords())
	feats := make([][]float64, set.NumTrain())

	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &RunResult{Config: cfg}
	clock := 0.0
	lr := cfg.Model.LR
	cur := cfg.ScanGroup
	var lossHistory []float64

	order := make([]int, len(feats))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, frac := range lrDropAt {
			if epoch == int(frac*float64(cfg.Epochs)) && epoch > 0 {
				lr /= 10
			}
		}
		if cfg.Controller != nil && cfg.Controller.ShouldTune(epoch, lossHistory) {
			next, probeSec, err := cfg.Controller.Tune(&State{
				Set:                 set,
				Model:               model,
				Task:                cfg.Task,
				Groups:              groups,
				LR:                  lr,
				Momentum:            cfg.Model.Momentum,
				Bandwidth:           cluster.AggregateBandwidth(),
				ComputeImagesPerSec: cfg.Model.ClusterImagesPerSec,
				Rng:                 rng,
			})
			if err != nil {
				return nil, err
			}
			clock += probeSec
			if next != cur {
				res.GroupSwitches++
				cur = next
			}
		}

		// Each record's group for this epoch (records are the unit of
		// read): the current group, or a mixture draw.
		for r, span := range ranges {
			g := drawGroup(cur, groups, cfg.MixWeight, rng)
			if bytesAt[g] == nil {
				if bytesAt[g], err = set.RecordBytesAtGroup(g); err != nil {
					return nil, err
				}
			}
			recordBytes[r] = bytesAt[g][r]
			gf, err := set.TrainFeatures(g)
			if err != nil {
				return nil, err
			}
			copy(feats[span[0]:span[1]], gf[span[0]:span[1]])
		}

		// Virtual time: one epoch of the simulated pipeline.
		lc := set.PaperLoader(cluster, cfg.Model, recordBytes)
		lc.Shuffle, lc.StartAt = rng, clock
		sim, err := loader.Run(lc)
		if err != nil {
			return nil, err
		}
		clock = sim.EndAt
		res.BytesPerEpoch = sim.BytesRead

		// Real SGD epoch.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var steps int
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			b := nn.Batch{}
			for _, idx := range order[start:end] {
				b.X = append(b.X, feats[idx])
				b.Y = append(b.Y, labels[idx])
			}
			g, loss, _, err := model.Gradient(b)
			if err != nil {
				return nil, err
			}
			model.Step(g, lr, cfg.Model.Momentum)
			epochLoss += loss
			steps++
		}
		meanLoss := epochLoss / float64(steps)
		lossHistory = append(lossHistory, meanLoss)

		pt := EpochPoint{
			Epoch:        epoch,
			TimeSec:      clock,
			TrainLoss:    meanLoss,
			Group:        cur,
			ImagesPerSec: sim.ImagesPerSec,
		}
		if epoch%evalEvery == 0 || epoch == cfg.Epochs-1 {
			testFeats, err := set.TestFeatures(cur)
			if err != nil {
				return nil, err
			}
			_, acc, err := model.Evaluate(nn.Batch{X: testFeats, Y: testLabels})
			if err != nil {
				return nil, err
			}
			pt.TestAcc = acc
			pt.Sampled = true
			res.FinalAcc = acc
		}
		res.Points = append(res.Points, pt)
	}
	res.TotalTimeSec = clock
	return res, nil
}

// TimeToAccuracy returns the first virtual time at which a sampled test
// accuracy reaches the target, or (0, false) if never reached.
func (r *RunResult) TimeToAccuracy(target float64) (float64, bool) {
	for _, p := range r.Points {
		if p.Sampled && p.TestAcc >= target {
			return p.TimeSec, true
		}
	}
	return 0, false
}

// FullGradient computes the full-batch gradient of the current task at scan
// group g for a given model — the quantity compared across scan groups in
// the paper's cosine-distance analysis (Figure 19).
func FullGradient(set *PCRSet, model *nn.MLP, task synth.Task, g int) (*nn.Grads, error) {
	feats, err := set.TrainFeatures(g)
	if err != nil {
		return nil, err
	}
	labels := set.TrainLabels(task)
	grads, _, _, err := model.Gradient(nn.Batch{X: feats, Y: labels})
	return grads, err
}
