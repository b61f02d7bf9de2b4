package jpegc

import (
	"bytes"
	"math/rand"
	"testing"
)

// referenceOptimal is libjpeg's jpeg_gen_optimal_table transcribed as it
// stands, scanning all 257 entries at every step: what buildOptimal, which
// visits only the symbols that occurred, must agree with on every table and
// every tie.
func referenceOptimal(f *freqCounter) *huffSpec {
	var freq [257]int64
	copy(freq[:], f[:])
	freq[256] = 1

	var codesize [257]int
	var others [257]int
	for i := range others {
		others[i] = -1
	}
	for {
		c1, c2 := -1, -1
		v := int64(1) << 62
		for i := 0; i <= 256; i++ {
			if freq[i] != 0 && freq[i] <= v {
				v = freq[i]
				c1 = i
			}
		}
		v = int64(1) << 62
		for i := 0; i <= 256; i++ {
			if freq[i] != 0 && freq[i] <= v && i != c1 {
				v = freq[i]
				c2 = i
			}
		}
		if c2 < 0 {
			break
		}
		freq[c1] += freq[c2]
		freq[c2] = 0
		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	var bits [33]int
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] > 32 {
				codesize[i] = 32
			}
			bits[codesize[i]]++
		}
	}
	for l := 32; l > 16; l-- {
		for bits[l] > 0 {
			j := l - 2
			for bits[j] == 0 {
				j--
			}
			bits[l] -= 2
			bits[l-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}
	l := 16
	for l > 0 && bits[l] == 0 {
		l--
	}
	if l > 0 {
		bits[l]--
	}

	spec := &huffSpec{}
	for i := 1; i <= 16; i++ {
		spec.bits[i-1] = byte(bits[i])
	}
	for size := 1; size <= 32; size++ {
		for sym := 0; sym <= 255; sym++ {
			if codesize[sym] == size {
				spec.vals = append(spec.vals, byte(sym))
			}
		}
	}
	return spec
}

// TestOptimizerMatchesReference drives buildOptimal over the frequency
// shapes where it could part from the reference: many equal counts (every
// merge is a tie), geometric counts (code lengths past 16, so the length
// limiting runs), a lone symbol, and nothing at all. One huffSpec is reused
// throughout, as the encoder reuses its own.
func TestOptimizerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	spec := &huffSpec{}
	check := func(name string, f *freqCounter) {
		t.Helper()
		f.buildOptimal(spec)
		want := referenceOptimal(f)
		if spec.bits != want.bits || !bytes.Equal(spec.vals, want.vals) {
			t.Errorf("%s:\n got %v %x\nwant %v %x", name, spec.bits, spec.vals, want.bits, want.vals)
		}
	}
	check("empty", &freqCounter{})
	check("lone symbol", &freqCounter{0x11: 5})
	for trial := 0; trial < 200; trial++ {
		var f freqCounter
		n := rng.Intn(256) + 1
		switch trial % 4 {
		case 0: // ties everywhere
			for i := 0; i < n; i++ {
				f[rng.Intn(256)] = int64(rng.Intn(3) + 1)
			}
		case 1: // geometric: the deepest tree a table can have
			c := int64(1)
			for _, sym := range rng.Perm(256)[:min(n, 40)] {
				f[sym] = c
				c += c/2 + int64(rng.Intn(2))
			}
		case 2: // all equal
			for i := 0; i < n; i++ {
				f[rng.Intn(256)] = 7
			}
		default: // photograph-like: a few heavy symbols, a long light tail
			for i := 0; i < n; i++ {
				f[rng.Intn(256)] = int64(rng.ExpFloat64()*rng.ExpFloat64()*50) + 1
			}
		}
		check("trial", &f)
	}
}

// referenceDecode is the canonical decoding procedure of T.81 F.2.2.3, one
// bit at a time over every length from 1: what the look-up decoder must
// agree with on any valid table.
func referenceDecode(spec *huffSpec, r *bitReader) (byte, bool) {
	code, first, k := 0, 0, 0
	for l := 1; l <= 16; l++ {
		code = code<<1 | int(r.readBits(1))
		n := int(spec.bits[l-1])
		if code-first < n {
			return spec.vals[k+code-first], true
		}
		k += n
		first = (first + n) << 1
	}
	return 0, false
}

// randomSpec draws a valid (prefix-free, never all-ones) table of up to 256
// symbols whose code lengths reach past the look-up width: the optimal table
// for random frequencies, skewed so that deep codes are common. (The skew
// restarts every 20 symbols, which keeps the tree within the 32 levels the
// optimizer allows for.)
func randomSpec(rng *rand.Rand) *huffSpec {
	var f freqCounter
	c := 1.0
	for i, sym := range rng.Perm(256)[:rng.Intn(255)+2] {
		if i%20 == 0 {
			c = 1
		}
		f[sym] = int64(c) + int64(rng.Intn(3))
		c *= 1 + rng.Float64()
	}
	spec := &huffSpec{}
	f.buildOptimal(spec)
	return spec
}

func TestLUTDecoderMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specs := []*huffSpec{&stdDCLuma, &stdDCChroma, &stdACLuma, &stdACChroma}
	for i := 0; i < 60; i++ {
		specs = append(specs, randomSpec(rng))
	}
	long := 0
	for _, spec := range specs {
		var enc huffEncoder
		if err := enc.build(spec); err != nil {
			t.Fatal(err)
		}
		var dec huffDecoder
		dec.build(&spec.bits, spec.vals)
		// Every symbol of the table, in random order and with random value
		// bits between them, so that codes start at every bit offset.
		var w bitWriter
		type item struct {
			sym   byte
			extra uint32
			n     uint
		}
		var items []item
		for rep := 0; rep < 3; rep++ {
			for _, k := range rng.Perm(len(spec.vals)) {
				n := uint(rng.Intn(17))
				it := item{spec.vals[k], uint32(rng.Intn(1 << n)), n}
				items = append(items, it)
				enc.emit(&w, it.sym, it.extra, it.n)
				if enc[it.sym]&31 > lutBits {
					long++
				}
			}
		}
		w.flush()
		fast, slow := &bitReader{data: w.out}, &bitReader{data: w.out}
		for i, it := range items {
			got, err := dec.decode(fast)
			ref, ok := referenceDecode(spec, slow)
			if err != nil || !ok || got != ref || got != it.sym {
				t.Fatalf("symbol %d: look-up %#x (%v), canonical %#x (%v), written %#x", i, got, err, ref, ok, it.sym)
			}
			if a, b := fast.readBits(it.n), slow.readBits(it.n); a != it.extra || b != it.extra {
				t.Fatalf("symbol %d: value bits %d / %d, written %d", i, a, b, it.extra)
			}
		}
		if fast.overrun() {
			t.Fatal("decoding what was written overran it")
		}
	}
	if long < 1000 {
		t.Errorf("only %d codes longer than the look-up width were exercised", long)
	}
}
