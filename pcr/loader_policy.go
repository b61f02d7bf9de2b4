package pcr

import (
	"slices"
	"sync"
)

// QualityPolicy chooses the scan-group quality for each record read by a
// Loader. The loader consults the policy once per record — PCR's unit of
// sequential I/O — in visit order, from one goroutine, at the moment it
// issues the record's read, which is up to the pipeline's read-ahead depth
// (four records) before that record is delivered. So a policy that changes
// its mind mid-epoch (see PlateauPolicy) cheapens the epoch in flight
// without restarting the pipeline: the next read issued is at the new
// quality, and at most the records already read ahead, plus the one being
// delivered, still arrive at the old one.
//
// Implementations must be safe for concurrent use: the loader's planning
// goroutine calls RecordQuality while the training loop may be reporting
// observations.
type QualityPolicy interface {
	// RecordQuality returns the quality (1..Qualities(), or Full) at which
	// the loader should read the given record of the given epoch.
	RecordQuality(epoch, record int) int
}

// FixedQuality is the static policy: every record of every epoch is read at
// the same quality (use Full for the baseline).
type FixedQuality int

// RecordQuality implements QualityPolicy.
func (q FixedQuality) RecordQuality(int, int) int { return int(q) }

// PlateauDetector is the pure plateau test at the heart of the paper's §4.5
// heuristic: the run plateaued when the best loss of the last Window
// observations improved less than MinImprove (relative) over the Window
// before it. It is a value type holding configuration only — no mutable
// state — so callers that need cooldown tracking (how long since the last
// tune) keep that state themselves and pass it in as sinceTune. Copies and
// concurrent use are therefore safe by construction.
type PlateauDetector struct {
	// Window is the comparison window length in observations (default 5).
	Window int
	// MinImprove is the relative improvement below which the run counts as
	// plateaued (default 0.02).
	MinImprove float64
}

// EffectiveWindow returns Window with the default applied.
func (d PlateauDetector) EffectiveWindow() int {
	if d.Window <= 0 {
		return 5
	}
	return d.Window
}

// Plateaued reports whether losses ends in a plateau: the trailing window
// improved less than MinImprove relative to the window before it. sinceTune
// is the number of observations since the caller last acted on a plateau;
// detection is suppressed until a full window of fresh observations has
// accumulated, so one plateau is not reported twice.
func (d PlateauDetector) Plateaued(sinceTune int, losses []float64) bool {
	w := d.EffectiveWindow()
	if len(losses) < 2*w || sinceTune < w {
		return false
	}
	minImprove := d.MinImprove
	if minImprove <= 0 {
		minImprove = 0.02
	}
	recent := slices.Min(losses[len(losses)-w:])
	before := slices.Min(losses[len(losses)-2*w : len(losses)-w])
	if before <= 0 {
		return false
	}
	return (before-recent)/before < minImprove
}

// adaptiveState is the descend machinery shared by PlateauPolicy and
// ProbePolicy: the current quality, the resolved dataset top ("Full"), and
// the plateau bookkeeping. Every field — including the plateau cooldown —
// lives on the policy value itself, never on a shared detector, so two
// policies never observe each other's plateau state.
type adaptiveState struct {
	mu       sync.Mutex
	inited   bool
	cur      int
	full     int // resolved Full; 0 until the loader first observes it
	ticks    int
	lastTune int
	losses   []float64
}

func (s *adaptiveState) init(start int) {
	if !s.inited {
		s.cur = start
		s.inited = true
	}
}

// resolvedCur returns the current quality with Full grounded against the
// dataset (0 while still unresolved). Caller holds s.mu.
func (s *adaptiveState) resolvedCur() int {
	if s.cur == Full {
		return s.full
	}
	return s.cur
}

// report is Report of both policies: it appends one observed loss, runs the
// plateau detector, and steps the quality down one level on a plateau (not
// below min).
func (s *adaptiveState) report(start int, det PlateauDetector, min int, loss float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init(start)
	s.losses = append(s.losses, loss)
	// The detector only reads the trailing 2×Window losses; keep the
	// history bounded so a long run doesn't grow it one float per report.
	if keep := 2 * det.EffectiveWindow(); len(s.losses) > 2*keep {
		s.losses = append(s.losses[:0], s.losses[len(s.losses)-keep:]...)
	}
	tick := s.ticks
	s.ticks++
	if det.Plateaued(tick-s.lastTune, s.losses) {
		s.lastTune = tick
		if min <= 0 {
			min = 1
		}
		// Full stays symbolic until NewLoader grounds it against the
		// dataset (observeQuality); until then a plateau cannot step.
		if cur := s.resolvedCur(); cur > min {
			s.cur = cur - 1
		}
	}
}

// quality is RecordQuality and Quality of both policies: the current
// quality, start until the first step.
func (s *adaptiveState) quality(start int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init(start)
	return s.cur
}

// observeQuality tells the policy the dataset-level quality its answers
// resolve against — the dataset's top, which NewLoader passes it, and which
// no answer exceeds — so "step down from Full" and "probe up to full" are
// well-defined even for a policy started below full quality.
func (s *adaptiveState) observeQuality(resolved int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if resolved > s.full {
		s.full = resolved
	}
}

// PlateauPolicy adapts quality during training using PlateauDetector (the
// paper's §4.5 heuristic), driven by real observed losses: reading starts at
// Start (Full by default), the training loop feeds observed losses in
// through Report, and each detected plateau steps the quality down one level
// toward Min. Because the Loader re-resolves quality for every record it reads, a
// plateau detected mid-epoch cheapens the rest of that epoch: the step takes
// effect at the next record whose read is issued, after the few (at most
// five) already read ahead at the old quality have been delivered.
//
// PlateauPolicy only descends; ProbePolicy is the bidirectional variant
// that also re-probes upward after learning-rate drops.
type PlateauPolicy struct {
	// Detector configures plateau detection over the reported loss history.
	// Its Window is measured in Report calls (report per epoch for
	// epoch-granular decisions, per batch for mid-epoch ones). The zero
	// value means Window 5, MinImprove 0.02. The detector is a pure value:
	// all plateau state is held per-policy, so handing the same Detector to
	// several policies never couples them.
	Detector PlateauDetector
	// Start is the initial quality (0 = Full).
	Start int
	// Min is the lowest quality the policy will descend to (default 1).
	Min int

	adaptiveState
}

// Report feeds one observed training loss to the plateau detector; on a
// detected plateau the policy steps down one quality level (not below Min).
// It is safe to call concurrently with a running Loader.
func (p *PlateauPolicy) Report(loss float64) { p.report(p.Start, p.Detector, p.Min, loss) }

// RecordQuality implements QualityPolicy.
func (p *PlateauPolicy) RecordQuality(int, int) int { return p.quality(p.Start) }

// Quality returns the policy's current quality (Full until the first
// plateau).
func (p *PlateauPolicy) Quality() int { return p.quality(p.Start) }

// ProbeResult is one candidate's measured outcome from an upward probe: the
// harness trained a few minibatches at Quality and observed Loss, moving
// Bytes of record prefix reads to do it.
type ProbeResult struct {
	// Quality is the dataset-level quality that was probed.
	Quality int
	// Loss is the final probe minibatch's training loss at that quality.
	Loss float64
	// Bytes is the record prefix bytes the probe read (logical; with a warm
	// disk cache the network moves only the scan-group delta).
	Bytes int64
}

// ProbePolicy is the bidirectional §4.5 controller: like PlateauPolicy it
// steps quality down one level on each loss plateau, and additionally it
// re-probes upward on an improvement signal — a reported learning-rate drop
// while below full quality. The probe itself is run by the training harness
// (internal/realtrain): it checkpoints the model, trains ProbeSteps
// minibatches per candidate quality through the Loader's out-of-band
// Probe().Batches reads, hands the measured losses to CompleteProbe, and rolls
// the probe updates back. CompleteProbe picks the cheapest candidate whose
// probe loss is within (1+Tolerance)× of the best — so quality re-ascends
// exactly when the extra scans demonstrably help, and a probe that a warm
// disk cache has already priced costs only the missing scan-group delta
// over the wire.
type ProbePolicy struct {
	// Detector configures plateau detection (see PlateauPolicy.Detector).
	Detector PlateauDetector
	// Start is the initial quality (0 = Full).
	Start int
	// Min is the lowest quality the policy will descend to (default 1).
	Min int
	// ProbeSteps is the number of probe minibatches trained per candidate
	// quality during an upward probe (default 4).
	ProbeSteps int
	// Tolerance accepts the cheapest candidate whose probe loss is within
	// (1+Tolerance)× of the best candidate's (default 0.05).
	Tolerance float64

	adaptiveState
	probeWanted bool
	probes      int
	probeWins   int
}

// Report feeds one observed training loss in; plateaus descend exactly as
// in PlateauPolicy. Safe to call concurrently with a running Loader.
func (p *ProbePolicy) Report(loss float64) { p.report(p.Start, p.Detector, p.Min, loss) }

// ReportLRDrop signals an improvement opportunity (the optimizer's learning
// rate just dropped, so the loss landscape is about to shift): if the
// policy is below full quality, the next ProbePlan call requests an upward
// probe.
func (p *ProbePolicy) ReportLRDrop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.init(p.Start)
	if cur := p.resolvedCur(); p.full > 0 && cur > 0 && cur < p.full {
		p.probeWanted = true
	}
}

// ProbePlan returns the pending probe, if any: the candidate qualities to
// measure (the current quality as the baseline, then every level up to
// full) and the minibatch count per candidate. ok is false when no probe is
// pending. The plan stays pending until CompleteProbe retires it, so a
// harness that fails mid-probe re-probes on its next pass.
func (p *ProbePolicy) ProbePlan() (candidates []int, steps int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.probeWanted || p.full == 0 {
		return nil, 0, false
	}
	cur := p.resolvedCur()
	if cur >= p.full {
		p.probeWanted = false
		return nil, 0, false
	}
	for q := cur; q <= p.full; q++ {
		candidates = append(candidates, q)
	}
	steps = p.ProbeSteps
	if steps <= 0 {
		steps = 4
	}
	return candidates, steps, true
}

// CompleteProbe retires the pending probe with its measured results: the
// policy adopts the cheapest (lowest) quality whose probe loss is within
// (1+Tolerance)× of the best result's, and resets its plateau history —
// the probe opened a fresh training regime. Results should come in
// ascending quality order, as ProbePlan listed them.
func (p *ProbePolicy) CompleteProbe(results []ProbeResult) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probeWanted = false
	if len(results) == 0 {
		return
	}
	p.probes++
	tol := p.Tolerance
	if tol <= 0 {
		tol = 0.05
	}
	best := results[0].Loss
	for _, r := range results[1:] {
		if r.Loss < best {
			best = r.Loss
		}
	}
	pick := results[len(results)-1].Quality
	for _, r := range results {
		if r.Loss <= best*(1+tol) {
			pick = r.Quality
			break
		}
	}
	if prev := p.resolvedCur(); pick > prev {
		p.probeWins++
	}
	p.cur = pick
	// The post-probe regime starts fresh: losses observed before the probe
	// must not trigger an immediate plateau against it.
	p.losses = p.losses[:0]
	p.lastTune = p.ticks
}

// RecordQuality implements QualityPolicy.
func (p *ProbePolicy) RecordQuality(int, int) int { return p.quality(p.Start) }

// Quality returns the policy's current quality.
func (p *ProbePolicy) Quality() int { return p.quality(p.Start) }

// Probes reports how many upward probes completed and how many of them won
// (re-ascended the quality).
func (p *ProbePolicy) Probes() (run, wins int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probes, p.probeWins
}

// qualityObserver is implemented by policies that want to learn the
// dataset's top quality, which NewLoader tells them once (PlateauPolicy and
// ProbePolicy use it to ground Full).
type qualityObserver interface {
	observeQuality(resolved int)
}
