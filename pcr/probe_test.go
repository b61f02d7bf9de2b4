package pcr_test

import (
	"context"
	"errors"
	"testing"

	"repro/pcr"
)

func TestPlateauDetectorPure(t *testing.T) {
	det := pcr.PlateauDetector{Window: 3, MinImprove: 0.05}
	improving := []float64{3, 2.5, 2.0, 1.6, 1.3, 1.0}
	flat := []float64{3, 2.5, 1.0, 1.0, 1.0, 1.0}
	if det.Plateaued(6, improving) {
		t.Error("detected a plateau during improvement")
	}
	if !det.Plateaued(6, flat) {
		t.Error("missed a plateau on flat loss")
	}
	// The detector is pure: the same inputs give the same answer again —
	// no hidden lastTune state advanced inside it.
	if !det.Plateaued(6, flat) {
		t.Error("second identical call changed its answer (hidden state)")
	}
	// Cooldown is the caller's sinceTune argument, not detector state.
	if det.Plateaued(2, flat) {
		t.Error("detected within the cooldown window")
	}
	// Too little history.
	if det.Plateaued(6, flat[:5]) {
		t.Error("detected with fewer than 2×Window observations")
	}
	// Zero value applies defaults (Window 5) rather than panicking.
	var zero pcr.PlateauDetector
	if zero.EffectiveWindow() != 5 {
		t.Errorf("zero-value window = %d, want 5", zero.EffectiveWindow())
	}
	tenFlat := []float64{5, 4, 3, 2, 1, 1, 1, 1, 1, 1}
	if !zero.Plateaued(10, tenFlat) {
		t.Error("zero-value detector missed an obvious plateau")
	}
}

// TestPlateauPolicyStateIsPerPolicy is the regression test for the shared
// plateau state bug: handing the same detector configuration to two
// policies must not couple them — formerly, two policies sharing one
// *PlateauController silently shared its cooldown (lastTune), so one
// policy's plateau suppressed the other's.
func TestPlateauPolicyStateIsPerPolicy(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	det := pcr.PlateauDetector{Window: 1, MinImprove: 0.99}
	p1 := &pcr.PlateauPolicy{Detector: det}
	p2 := &pcr.PlateauPolicy{Detector: det}
	for _, p := range []*pcr.PlateauPolicy{p1, p2} {
		l, err := pcr.NewLoader(ds, pcr.WithQualityPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		epochIDs(t, l, 0) // grounds Full against the dataset
	}

	top := ds.Qualities()
	for i := 0; i < 4; i++ {
		p1.Report(1.0)
	}
	if q := p1.Quality(); q != 1 {
		t.Fatalf("p1 at %d after four flat reports, want the floor 1", q)
	}
	if q := p2.Quality(); q != pcr.Full {
		t.Fatalf("p1's reports moved p2 to %d — plateau state is shared across policies", q)
	}
	// p2 detects on its own schedule: its own second flat report is its
	// first eligible plateau, wherever p1's cooldown sits.
	p2.Report(1.0)
	if q := p2.Quality(); q != pcr.Full {
		t.Fatal("p2 stepped with a single report")
	}
	p2.Report(1.0)
	if q := p2.Quality(); q != top-1 {
		t.Fatalf("p2 at %d after its own plateau, want %d — cooldown state leaked from p1", q, top-1)
	}
}

// TestProbePolicyPlanAndDecision drives the bidirectional state machine
// end to end at the policy level: LR-drop gating, the pending plan, the
// cheapest-within-tolerance decision, win counting, and the post-probe
// history reset.
func TestProbePolicyPlanAndDecision(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	p := &pcr.ProbePolicy{
		Detector:   pcr.PlateauDetector{Window: 1, MinImprove: 0.99},
		ProbeSteps: 3,
		Tolerance:  0.1,
	}
	l, err := pcr.NewLoader(ds, pcr.WithQualityPolicy(p))
	if err != nil {
		t.Fatal(err)
	}
	epochIDs(t, l, 0) // grounds Full

	// At full quality there is no headroom: an LR drop requests nothing.
	p.ReportLRDrop()
	if _, _, ok := p.ProbePlan(); ok {
		t.Fatal("probe requested while already at full quality")
	}

	// Descend to 2 (top is 4: the second and third flat reports step).
	p.Report(1.0)
	p.Report(1.0)
	p.Report(1.0)
	if q := p.Quality(); q != 2 {
		t.Fatalf("descended to %d, want 2", q)
	}

	// Now an LR drop plans a probe over [current..full].
	p.ReportLRDrop()
	cands, steps, ok := p.ProbePlan()
	if !ok || steps != 3 {
		t.Fatalf("plan = (%v, %d, %v), want candidates with 3 steps", cands, steps, ok)
	}
	if len(cands) != 3 || cands[0] != 2 || cands[1] != 3 || cands[2] != 4 {
		t.Fatalf("candidates = %v, want [2 3 4]", cands)
	}
	// The plan stays pending until CompleteProbe retires it (a harness that
	// dies mid-probe re-probes on its next pass).
	if _, _, ok := p.ProbePlan(); !ok {
		t.Fatal("plan retired before CompleteProbe")
	}

	// Quality 3's loss is within 10% of the best (quality 4); 2's is not:
	// the probe re-ascends to the cheapest quality inside the tolerance.
	p.CompleteProbe([]pcr.ProbeResult{
		{Quality: 2, Loss: 1.3},
		{Quality: 3, Loss: 1.05},
		{Quality: 4, Loss: 1.0},
	})
	if q := p.Quality(); q != 3 {
		t.Fatalf("probe picked %d, want the cheapest within tolerance, 3", q)
	}
	if run, wins := p.Probes(); run != 1 || wins != 1 {
		t.Fatalf("probes run/won = %d/%d, want 1/1", run, wins)
	}
	if _, _, ok := p.ProbePlan(); ok {
		t.Fatal("plan survived CompleteProbe")
	}
	// The probe reset the plateau history: pre-probe losses cannot trigger
	// an immediate step against the fresh regime.
	p.Report(1.0)
	if q := p.Quality(); q != 3 {
		t.Fatalf("stepped to %d immediately after the probe", q)
	}

	// A losing probe (current quality within tolerance of the best) keeps
	// the current quality and counts no win.
	p.ReportLRDrop()
	if _, _, ok := p.ProbePlan(); !ok {
		t.Fatal("no plan after second LR drop below full")
	}
	p.CompleteProbe([]pcr.ProbeResult{
		{Quality: 3, Loss: 1.0},
		{Quality: 4, Loss: 1.0},
	})
	if q := p.Quality(); q != 3 {
		t.Fatalf("losing probe moved quality to %d", q)
	}
	if run, wins := p.Probes(); run != 2 || wins != 1 {
		t.Fatalf("probes run/won = %d/%d, want 2/1", run, wins)
	}
}

// TestProbePolicyRestartedBelowFullStillProbes is the regression test for
// Full grounding: a worker that restarts with its policy rebuilt at the
// concrete quality it had reached (ProbePolicy{Start: q}) never answers —
// and so never "observes" — any quality above q. The loader must ground
// the dataset's top quality at construction, or the restarted controller
// silently degrades to descend-only and can never re-ascend.
func TestProbePolicyRestartedBelowFullStillProbes(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(2), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	p := &pcr.ProbePolicy{Start: 2}
	if _, err := pcr.NewLoader(ds, pcr.WithQualityPolicy(p)); err != nil {
		t.Fatal(err)
	}
	// No epoch has run: only NewLoader has seen the policy.
	p.ReportLRDrop()
	cands, _, ok := p.ProbePlan()
	if !ok {
		t.Fatal("restarted policy below full quality armed no probe after an LR drop")
	}
	if len(cands) != 3 || cands[0] != 2 || cands[2] != 4 {
		t.Fatalf("candidates = %v, want [2 3 4] up to the dataset's full quality", cands)
	}
}

// probeIDs flattens probe batches to sample IDs, checking shape.
func probeIDs(t *testing.T, batches []pcr.Batch, wantBatch int) []int64 {
	t.Helper()
	var ids []int64
	for _, b := range batches {
		if b.Epoch != -1 {
			t.Fatalf("probe batch claims epoch %d, want -1", b.Epoch)
		}
		if len(b.Samples) != wantBatch {
			t.Fatalf("probe batch has %d samples, want %d", len(b.Samples), wantBatch)
		}
		for _, s := range b.Samples {
			if s.Image == nil {
				t.Fatalf("probe sample %d not decoded", s.ID)
			}
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// TestLoaderProbeBatches: the out-of-band probe read path is deterministic,
// validates its arguments, accounts its bytes into the next epoch's stats
// (never into BytesRead), and leaves epoch delivery untouched.
func TestLoaderProbeBatches(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	mk := func() *pcr.Loader {
		t.Helper()
		l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithLoaderSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	l := mk()
	_, stats0 := epochIDs(t, l, 0)
	if stats0.Probes != 0 || stats0.ProbeBytes != 0 {
		t.Fatalf("probe accounting nonzero before any probe: %+v", stats0)
	}

	b1, bytes1, err := l.Probe().Batches(ctx, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != 2 || bytes1 <= 0 {
		t.Fatalf("probe returned %d batches, %d bytes", len(b1), bytes1)
	}
	ids1 := probeIDs(t, b1, 4)

	if _, _, err := l.Probe().Batches(ctx, 99, 1); !errors.Is(err, pcr.ErrNoSuchQuality) {
		t.Fatalf("probe at quality 99: %v, want ErrNoSuchQuality", err)
	}
	if _, _, err := l.Probe().Batches(ctx, 1, 0); err == nil {
		t.Fatal("probe with zero batches accepted")
	}

	b2, bytes2, err := l.Probe().Batches(ctx, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids2 := probeIDs(t, b2, 4)
	if equalIDs(ids1, ids2) {
		t.Fatal("consecutive probes drew identical records (probe sequence not advancing)")
	}

	// Determinism: a fresh loader with the same seed replays the same
	// probe sequence.
	l2 := mk()
	c1, cb1, err := l2.Probe().Batches(ctx, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids1, probeIDs(t, c1, 4)) || cb1 != bytes1 {
		t.Fatal("probe record selection is not deterministic across loaders")
	}

	// Probe accounting folds into the next completed epoch — and only into
	// the probe counters, not BytesRead.
	e1, stats1 := epochIDs(t, l, 1)
	if stats1.Probes != 2 {
		t.Fatalf("epoch folded %d probe passes, want 2", stats1.Probes)
	}
	if stats1.ProbeBytes != bytes1+bytes2 {
		t.Fatalf("epoch folded %d probe bytes, want %d", stats1.ProbeBytes, bytes1+bytes2)
	}
	if stats1.ProbeWall <= 0 {
		t.Fatal("probe wall time not recorded")
	}
	l3 := mk()
	e1Clean, stats1Clean := epochIDs(t, l3, 1)
	if !equalIDs(e1, e1Clean) {
		t.Fatal("probes perturbed the epoch's delivery order")
	}
	if stats1.BytesRead != stats1Clean.BytesRead {
		t.Fatalf("probe bytes leaked into BytesRead: %d vs %d", stats1.BytesRead, stats1Clean.BytesRead)
	}
	// The fold resets after each epoch.
	_, stats2 := epochIDs(t, l, 2)
	if stats2.Probes != 0 || stats2.ProbeBytes != 0 {
		t.Fatalf("probe accounting leaked into a later epoch: %+v", stats2)
	}
}

// TestProbeHandleReadsSameRecordsAcrossQualities: all candidate qualities
// of one §4.5 probe must be measured on the SAME records — otherwise the
// adopt-cheapest-within-tolerance decision compares sample difficulty, not
// quality. A Probe handle pins the draw; only the bytes differ.
func TestProbeHandleReadsSameRecordsAcrossQualities(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	l, err := pcr.NewLoader(ds, pcr.WithBatchSize(4), pcr.WithLoaderSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	p := l.Probe()
	low, lowBytes, err := p.Batches(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, fullBytes, err := p.Batches(ctx, pcr.Full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(probeIDs(t, low, 4), probeIDs(t, full, 4)) {
		t.Fatal("candidate qualities of one probe read different records")
	}
	if lowBytes >= fullBytes {
		t.Fatalf("quality 1 read %d bytes, full %d — prefixes did not scale with quality", lowBytes, fullBytes)
	}
	// A fresh handle moves on to a different draw.
	next, _, err := l.Probe().Batches(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if equalIDs(probeIDs(t, low, 4), probeIDs(t, next, 4)) {
		t.Fatal("a new probe handle replayed the previous draw")
	}
}

// TestLoaderResumeUnderAdaptivePolicy: a loader resumed mid-epoch under an
// adaptive policy continues at the policy's current quality, and its byte
// accounting is exactly that of a fixed-quality loader resumed at the same
// checkpoint.
func TestLoaderResumeUnderAdaptivePolicy(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(4))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	base := []pcr.LoaderOption{pcr.WithBatchSize(8), pcr.WithLoaderSeed(7)}

	// Ground a policy and descend it to quality 2 before the epoch under
	// test (top is 4).
	p := &pcr.PlateauPolicy{Detector: pcr.PlateauDetector{Window: 1, MinImprove: 0.99}}
	l1, err := pcr.NewLoader(ds, append(base, pcr.WithQualityPolicy(p))...)
	if err != nil {
		t.Fatal(err)
	}
	epochIDs(t, l1, 0)
	p.Report(1.0)
	p.Report(1.0)
	p.Report(1.0)
	if q := p.Quality(); q != 2 {
		t.Fatalf("policy at %d, want 2", q)
	}

	// First life: two batches of epoch 1 at the policy's quality, then a
	// checkpoint and a "crash".
	var gotIDs []int64
	var cp pcr.Checkpoint
	consumed := 0
	for b, err := range l1.Epoch(ctx, 1) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			gotIDs = append(gotIDs, s.ID)
		}
		if consumed++; consumed == 2 {
			var ok bool
			if cp, ok = l1.Checkpoint(); !ok {
				t.Fatal("no checkpoint after two batches")
			}
			break
		}
	}

	// Second life: a restarted worker rebuilds its policy at the quality it
	// had reached (persisted alongside the model, like the LR schedule) and
	// resumes. The resumed epoch must continue at that quality.
	p2 := &pcr.PlateauPolicy{Start: 2}
	l2, err := pcr.NewLoader(ds, pcr.WithResume(cp), pcr.WithQualityPolicy(p2))
	if err != nil {
		t.Fatal(err)
	}
	for b, err := range l2.Epoch(ctx, cp.Epoch) {
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range b.Samples {
			gotIDs = append(gotIDs, s.ID)
		}
	}
	resStats, ok := l2.LastEpochStats()
	if !ok {
		t.Fatal("no stats after resumed epoch")
	}
	if resStats.MinQuality != 2 || resStats.MaxQuality != 2 {
		t.Fatalf("resumed epoch read qualities [%d,%d], want the policy's quality 2",
			resStats.MinQuality, resStats.MaxQuality)
	}

	// The stitched sequence equals an uninterrupted fixed-quality epoch.
	fixed, err := pcr.NewLoader(ds, append(base, pcr.WithQuality(2))...)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, fullStats := epochIDs(t, fixed, 1)
	if !equalIDs(gotIDs, wantIDs) {
		t.Fatal("resumed adaptive epoch delivered a different sample sequence")
	}

	// Byte accounting across the boundary: the adaptive resume reads
	// byte-for-byte what a fixed-quality resume from the same checkpoint
	// reads, and strictly less than the uninterrupted epoch (skipped
	// records are never read).
	fixedRes, err := pcr.NewLoader(ds, pcr.WithResume(cp), pcr.WithQuality(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range fixedRes.Epoch(ctx, cp.Epoch) {
		if err != nil {
			t.Fatal(err)
		}
	}
	frStats, _ := fixedRes.LastEpochStats()
	if resStats.BytesRead != frStats.BytesRead {
		t.Fatalf("adaptive resume read %d bytes, fixed-quality resume %d", resStats.BytesRead, frStats.BytesRead)
	}
	if resStats.BytesRead >= fullStats.BytesRead {
		t.Fatalf("resumed epoch read %d bytes, full epoch %d — skipped records were read",
			resStats.BytesRead, fullStats.BytesRead)
	}
}

// TestProbeDeltaPricedOverWarmDiskCache is the acceptance e2e for probe
// pricing: against a live prefix server with a disk cache warmed at
// quality 1, a full-quality upward probe's network traffic — measured by
// the SERVER's own byte counter — equals exactly the missing scan-group
// delta of the records it probed. The probe's logical bytes and the disk
// cache's delta counter agree.
func TestProbeDeltaPricedOverWarmDiskCache(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4), pcr.WithScanGroups(4))
	srv, ts := startServer(t, dir, nil)
	ctx := context.Background()

	// Map sample IDs to records from a local open of the same directory, so
	// the wire counters below see only the remote loader's traffic.
	local, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	idToRec := make(map[int64]int)
	for r := 0; r < local.NumRecords(); r++ {
		samples, err := local.ReadRecordEncoded(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			idToRec[s.ID] = r
		}
	}

	remote, err := pcr.OpenRemote(ts.URL, pcr.WithDiskCache(t.TempDir(), 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	l, err := pcr.NewLoader(remote, pcr.WithBatchSize(4), pcr.WithQuality(1))
	if err != nil {
		t.Fatal(err)
	}

	// Warm epoch at quality 1: every record's q1 prefix lands in the disk
	// cache (this is the state a descended training run leaves behind).
	for _, err := range l.Epoch(ctx, 0) {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The upward probe, as the controller would issue it on an LR drop.
	served0 := srv.Stats().BytesServed
	batches, probeBytes, err := l.Probe().Batches(ctx, pcr.Full, 2)
	if err != nil {
		t.Fatal(err)
	}
	moved := srv.Stats().BytesServed - served0

	recs := make(map[int]bool)
	for _, id := range probeIDs(t, batches, 4) {
		recs[idToRec[id]] = true
	}
	if len(recs) == 0 {
		t.Fatal("probe touched no records")
	}
	var wantDelta, wantLogical int64
	for r := range recs {
		fullLen, err := local.RecordPrefixLen(r, pcr.Full)
		if err != nil {
			t.Fatal(err)
		}
		q1Len, err := local.RecordPrefixLen(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta += fullLen - q1Len
		wantLogical += fullLen
	}
	if wantDelta <= 0 {
		t.Fatal("degenerate dataset: no scan-group delta to measure")
	}
	if moved != wantDelta {
		t.Fatalf("upward probe moved %d network bytes, want exactly the missing scan-group delta %d", moved, wantDelta)
	}
	if probeBytes != wantLogical {
		t.Fatalf("probe reported %d logical bytes, want the probed records' full prefixes %d", probeBytes, wantLogical)
	}
	st, ok := remote.DiskCacheStats()
	if !ok {
		t.Fatal("no disk cache stats")
	}
	if st.DeltaBytes != wantDelta {
		t.Fatalf("disk cache fetched %d delta bytes, want %d", st.DeltaBytes, wantDelta)
	}
}
