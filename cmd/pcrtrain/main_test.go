package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/pcr"
)

// testConfig is a small, fast real-I/O run.
func testConfig(data string) cliConfig {
	return cliConfig{
		dataset:         "cars",
		data:            data,
		model:           "shufflenetlike",
		task:            "multiclass",
		epochs:          2,
		batch:           16,
		scale:           0.1,
		seed:            3,
		imagesPerRecord: 4,
		scanGroups:      4,
		shards:          1,
	}
}

// synthDataset writes a small dataset dir matching testConfig's knobs.
func synthDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 3,
		pcr.WithImagesPerRecord(4), pcr.WithScanGroups(4)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTrainThroughLoaderLocalAndRemote: pcrtrain trains through pcr.Loader
// over a local directory and over the same dataset served by the prefix
// server, with identical logical bytes moved.
func TestTrainThroughLoaderLocalAndRemote(t *testing.T) {
	dir := synthDataset(t)

	var localOut bytes.Buffer
	local, err := run(&localOut, testConfig(dir))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if len(local.Epochs) != 2 {
		t.Fatalf("local run produced %d epochs, want 2", len(local.Epochs))
	}
	for _, p := range local.Epochs {
		if math.IsNaN(p.TrainLoss) || math.IsInf(p.TrainLoss, 0) {
			t.Fatalf("epoch %d loss is %v", p.Epoch, p.TrainLoss)
		}
		if p.Stats.Images == 0 || p.Stats.BytesRead == 0 {
			t.Fatalf("epoch %d moved no data: %+v", p.Epoch, p.Stats)
		}
	}
	if !strings.Contains(localOut.String(), "MB moved") {
		t.Fatalf("output missing per-epoch I/O report:\n%s", localOut.String())
	}

	srv, err := serve.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	var remoteOut bytes.Buffer
	remote, err := run(&remoteOut, testConfig(ts.URL))
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if remote.TotalBytes != local.TotalBytes {
		t.Fatalf("remote run moved %d bytes, local %d", remote.TotalBytes, local.TotalBytes)
	}
	if remote.Epochs[0].TrainLoss != local.Epochs[0].TrainLoss {
		t.Fatalf("remote epoch-0 loss %v differs from local %v (same seed, same data)",
			remote.Epochs[0].TrainLoss, local.Epochs[0].TrainLoss)
	}
}

// TestAdaptiveEpochMovesFewerBytes: with -dynamic plateau and an
// aggressive detector, a later (adaptive) epoch moves fewer bytes than the
// full-quality epochs of the same data.
func TestAdaptiveEpochMovesFewerBytes(t *testing.T) {
	// Two images to a record: an epoch has to outlast the loader's
	// read-ahead for a plateau seen after its first batch to find records
	// whose reads are not issued yet.
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 3,
		pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4)); err != nil {
		t.Fatal(err)
	}

	fixed := testConfig(dir)
	fixed.epochs = 1
	fullRes, err := run(new(bytes.Buffer), fixed)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := fullRes.Epochs[0].Stats.BytesRead

	adaptive := testConfig(dir)
	adaptive.epochs = 8
	adaptive.dynamic = "plateau"
	adRes, err := run(new(bytes.Buffer), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	last := adRes.Epochs[len(adRes.Epochs)-1].Stats
	if last.BytesRead >= fullBytes {
		t.Fatalf("adaptive final epoch moved %d bytes, want < full-quality epoch's %d", last.BytesRead, fullBytes)
	}
	if last.MaxQuality >= fullRes.Epochs[0].Stats.MaxQuality {
		t.Fatalf("adaptive run never cheapened: final epoch qualities [%d,%d]", last.MinQuality, last.MaxQuality)
	}
	// The plateau fires mid-epoch: some epoch shows mixed qualities.
	mixed := false
	for _, p := range adRes.Epochs {
		if p.Stats.MinQuality != p.Stats.MaxQuality {
			mixed = true
		}
	}
	if !mixed {
		t.Fatal("no epoch cheapened in flight (all epochs single-quality)")
	}
}

// TestProbeModeEndToEnd: pcrtrain's -dynamic probe against a pcrserved
// engine with a persistent disk cache — the full §4.5 bidirectional loop.
// Training descends on plateaus; the LR drops trigger upward probes whose
// reads ride the warm disk cache (epoch 0 ran at full quality, so the
// probes' record prefixes are already local and re-probing is delta-priced
// at zero extra network bytes); the summary line reports the probes. A
// second run over the same cache directory recovers warm and trains to
// completion.
func TestProbeModeEndToEnd(t *testing.T) {
	dir := synthDataset(t)
	srv, err := serve.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	cfg := testConfig(ts.URL)
	cfg.epochs = 15 // LR drops at epochs 5 and 10
	cfg.dynamic = "probe"
	cfg.probeSteps = 2
	cfg.probeTol = 0.05
	cfg.diskCacheDir = t.TempDir()
	cfg.diskCacheMB = 512

	var out bytes.Buffer
	res, err := run(&out, cfg)
	if err != nil {
		t.Fatalf("probe mode: %v", err)
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("final loss is %v", res.FinalLoss)
	}
	var probes int
	var probeBytes int64
	for _, p := range res.Epochs {
		probes += p.Stats.Probes
		probeBytes += p.Stats.ProbeBytes
	}
	if probes == 0 {
		t.Fatalf("no upward probe ran across two LR drops:\n%s", out.String())
	}
	if probeBytes == 0 {
		t.Fatal("probes read no bytes")
	}
	if !strings.Contains(out.String(), "probes:") {
		t.Fatalf("summary missing the probe line:\n%s", out.String())
	}
	// The policy descended at some point: some epoch read below full.
	descended := false
	for _, p := range res.Epochs {
		if p.Stats.MinQuality < cfg.scanGroups {
			descended = true
		}
	}
	if !descended {
		t.Fatalf("policy never descended; probes had nothing to re-ascend:\n%s", out.String())
	}

	// Warm restart over the same cache: entries recover without a CRC scan
	// (each is checked on its first read) and the run completes.
	var out2 bytes.Buffer
	if _, err := run(&out2, cfg); err != nil {
		t.Fatalf("warm probe run: %v", err)
	}
	if !strings.Contains(out2.String(), "entries recovered warm") ||
		strings.Contains(out2.String(), " 0 entries recovered warm") {
		t.Fatalf("warm restart recovered no cache entries:\n%s", out2.String())
	}
}

// TestCosineNamesTheExperiment: gradient-cosine tuning runs only on the
// virtual clock, so -dynamic cosine fails before touching any data and
// names the command that runs it.
func TestCosineNamesTheExperiment(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.dynamic = "cosine"
	_, err := run(new(bytes.Buffer), cfg)
	if err == nil || !strings.Contains(err.Error(), "go run ./cmd/experiments -run fig20") {
		t.Fatalf("-dynamic cosine = %v, want an error naming go run ./cmd/experiments -run fig20", err)
	}
}
