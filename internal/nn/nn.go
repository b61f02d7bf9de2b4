// Package nn is a small from-scratch neural-network library: multi-layer
// perceptrons with ReLU activations, softmax cross-entropy loss, and SGD
// with momentum. The reproduction trains these models for real on decoded
// pixels — losses, accuracies, and gradients in the experiments are
// computed, not synthesized. Two model profiles ("resnetlike" and
// "shufflenetlike") pair a network shape with the paper's measured
// images/second service rates (§4.1, Figure 9) so that the virtual time
// axis reflects the paper's hardware balance.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully connected network with one hidden ReLU layer.
type MLP struct {
	In, Hidden, Out int

	// Parameters, row-major: W1 is Hidden×In, W2 is Out×Hidden.
	W1, B1, W2, B2 []float64

	// Momentum buffers, allocated lazily by Step.
	vW1, vB1, vW2, vB2 []float64
}

// NewMLP builds a network with He-initialized weights drawn from seed.
func NewMLP(in, hidden, out int, seed int64) (*MLP, error) {
	if in <= 0 || hidden <= 0 || out <= 1 {
		return nil, fmt.Errorf("nn: bad shape %d-%d-%d", in, hidden, out)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{
		In: in, Hidden: hidden, Out: out,
		W1: make([]float64, hidden*in),
		B1: make([]float64, hidden),
		W2: make([]float64, out*hidden),
		B2: make([]float64, out),
	}
	s1 := math.Sqrt(2 / float64(in))
	for i := range m.W1 {
		m.W1[i] = rng.NormFloat64() * s1
	}
	s2 := math.Sqrt(2 / float64(hidden))
	for i := range m.W2 {
		m.W2[i] = rng.NormFloat64() * s2
	}
	return m, nil
}

// Clone deep-copies the parameters and momentum buffers; used for the
// checkpoint/rollback step of the paper's autotuner (§4.5). Because the
// optimizer velocity is part of the copy, training resumed from a restored
// checkpoint is bit-identical to a run where the probe never happened.
func (m *MLP) Clone() *MLP {
	c := &MLP{In: m.In, Hidden: m.Hidden, Out: m.Out}
	c.W1 = append([]float64(nil), m.W1...)
	c.B1 = append([]float64(nil), m.B1...)
	c.W2 = append([]float64(nil), m.W2...)
	c.B2 = append([]float64(nil), m.B2...)
	if m.vW1 != nil {
		c.vW1 = append([]float64(nil), m.vW1...)
		c.vB1 = append([]float64(nil), m.vB1...)
		c.vW2 = append([]float64(nil), m.vW2...)
		c.vB2 = append([]float64(nil), m.vB2...)
	}
	return c
}

// Restore copies parameters and momentum buffers from the checkpoint into m.
func (m *MLP) Restore(ckpt *MLP) error {
	if m.In != ckpt.In || m.Hidden != ckpt.Hidden || m.Out != ckpt.Out {
		return fmt.Errorf("nn: restore shape mismatch")
	}
	copy(m.W1, ckpt.W1)
	copy(m.B1, ckpt.B1)
	copy(m.W2, ckpt.W2)
	copy(m.B2, ckpt.B2)
	if ckpt.vW1 == nil {
		// The checkpoint predates the first optimizer step: clear any
		// velocity accumulated since, restoring the optimizer state too.
		m.vW1, m.vB1, m.vW2, m.vB2 = nil, nil, nil, nil
	} else {
		m.vW1 = append(m.vW1[:0], ckpt.vW1...)
		m.vB1 = append(m.vB1[:0], ckpt.vB1...)
		m.vW2 = append(m.vW2[:0], ckpt.vW2...)
		m.vB2 = append(m.vB2[:0], ckpt.vB2...)
	}
	return nil
}

// forward computes hidden activations and logits for one input.
func (m *MLP) forward(x []float64, hidden, logits []float64) {
	for h := 0; h < m.Hidden; h++ {
		s := m.B1[h]
		row := m.W1[h*m.In : (h+1)*m.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		if s < 0 {
			s = 0
		}
		hidden[h] = s
	}
	for o := 0; o < m.Out; o++ {
		s := m.B2[o]
		row := m.W2[o*m.Hidden : (o+1)*m.Hidden]
		for h, hv := range hidden {
			s += row[h] * hv
		}
		logits[o] = s
	}
}

// softmaxCE computes softmax probabilities in place over logits and returns
// the cross-entropy loss against the label.
func softmaxCE(logits []float64, label int) float64 {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		logits[i] = e
		sum += e
	}
	for i := range logits {
		logits[i] /= sum
	}
	p := logits[label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// Grads holds a full parameter gradient.
type Grads struct {
	W1, B1, W2, B2 []float64
}

// NewGrads allocates a zero gradient matching m's shape.
func (m *MLP) NewGrads() *Grads {
	return &Grads{
		W1: make([]float64, len(m.W1)),
		B1: make([]float64, len(m.B1)),
		W2: make([]float64, len(m.W2)),
		B2: make([]float64, len(m.B2)),
	}
}

// Flatten concatenates the gradient into one vector (for cosine-similarity
// comparisons between scan groups, §A.6).
func (g *Grads) Flatten() []float64 {
	out := make([]float64, 0, len(g.W1)+len(g.B1)+len(g.W2)+len(g.B2))
	out = append(out, g.W1...)
	out = append(out, g.B1...)
	out = append(out, g.W2...)
	out = append(out, g.B2...)
	return out
}

// Batch is a set of feature vectors with labels.
type Batch struct {
	X [][]float64
	Y []int
}

// Gradient computes the mean loss, accuracy, and parameter gradient over the
// batch.
func (m *MLP) Gradient(b Batch) (*Grads, float64, float64, error) {
	if len(b.X) == 0 || len(b.X) != len(b.Y) {
		return nil, 0, 0, fmt.Errorf("nn: bad batch (%d inputs, %d labels)", len(b.X), len(b.Y))
	}
	g := m.NewGrads()
	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.Out)
	dHidden := make([]float64, m.Hidden)
	var loss float64
	var correct int
	for n, x := range b.X {
		if len(x) != m.In {
			return nil, 0, 0, fmt.Errorf("nn: input %d has %d features, want %d", n, len(x), m.In)
		}
		y := b.Y[n]
		if y < 0 || y >= m.Out {
			return nil, 0, 0, fmt.Errorf("nn: label %d out of range [0,%d)", y, m.Out)
		}
		m.forward(x, hidden, logits)
		best := 0
		for o := 1; o < m.Out; o++ {
			if logits[o] > logits[best] {
				best = o
			}
		}
		if best == y {
			correct++
		}
		loss += softmaxCE(logits, y) // logits now hold probabilities

		// dLogits = p − onehot(y)
		logits[y] -= 1
		for h := range dHidden {
			dHidden[h] = 0
		}
		for o := 0; o < m.Out; o++ {
			d := logits[o]
			g.B2[o] += d
			row := g.W2[o*m.Hidden : (o+1)*m.Hidden]
			wrow := m.W2[o*m.Hidden : (o+1)*m.Hidden]
			for h, hv := range hidden {
				row[h] += d * hv
				dHidden[h] += d * wrow[h]
			}
		}
		for h := 0; h < m.Hidden; h++ {
			if hidden[h] <= 0 {
				continue // ReLU gate
			}
			d := dHidden[h]
			g.B1[h] += d
			row := g.W1[h*m.In : (h+1)*m.In]
			for i, xi := range x {
				row[i] += d * xi
			}
		}
	}
	inv := 1 / float64(len(b.X))
	for _, s := range [][]float64{g.W1, g.B1, g.W2, g.B2} {
		for i := range s {
			s[i] *= inv
		}
	}
	return g, loss * inv, float64(correct) * inv, nil
}

// Evaluate returns mean loss and accuracy without computing gradients.
func (m *MLP) Evaluate(b Batch) (loss, acc float64, err error) {
	if len(b.X) == 0 || len(b.X) != len(b.Y) {
		return 0, 0, fmt.Errorf("nn: bad batch")
	}
	hidden := make([]float64, m.Hidden)
	logits := make([]float64, m.Out)
	var correct int
	for n, x := range b.X {
		m.forward(x, hidden, logits)
		best := 0
		for o := 1; o < m.Out; o++ {
			if logits[o] > logits[best] {
				best = o
			}
		}
		if best == b.Y[n] {
			correct++
		}
		loss += softmaxCE(logits, b.Y[n])
	}
	n := float64(len(b.X))
	return loss / n, float64(correct) / n, nil
}

// Step applies one SGD-with-momentum update: v = μv − lr·g; θ += v.
func (m *MLP) Step(g *Grads, lr, momentum float64) {
	if m.vW1 == nil {
		m.vW1 = make([]float64, len(m.W1))
		m.vB1 = make([]float64, len(m.B1))
		m.vW2 = make([]float64, len(m.W2))
		m.vB2 = make([]float64, len(m.B2))
	}
	apply := func(p, v, grad []float64) {
		for i := range p {
			v[i] = momentum*v[i] - lr*grad[i]
			p[i] += v[i]
		}
	}
	apply(m.W1, m.vW1, g.W1)
	apply(m.B1, m.vB1, g.B1)
	apply(m.W2, m.vW2, g.W2)
	apply(m.B2, m.vB2, g.B2)
}

// CosineSimilarity returns a·b / (|a||b|), the gradient-agreement measure of
// §A.6 (1 means the compressed-data gradient points exactly along the
// full-quality gradient).
func CosineSimilarity(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("nn: vector length mismatch %d vs %d", len(a), len(b))
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0, fmt.Errorf("nn: zero-norm gradient")
	}
	return dot / math.Sqrt(na*nb), nil
}
