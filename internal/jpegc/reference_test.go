package jpegc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// TestLUTDecoderMatchesCanonical holds the table decoder to the canonical
// procedure: decode's symbol, and decodeValue's symbol and sign-extended
// value, which come out of the look-up entry itself where the code and the
// value bits fit its width together. Every symbol of each table is written
// once at every bit offset within a byte, in random order, with random value
// bits and random filler before it.
func TestLUTDecoderMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	specs := []*huffSpec{&stdDCLuma, &stdDCChroma, &stdACLuma, &stdACChroma}
	for i := 0; i < 60; i++ {
		specs = append(specs, randomSpec(rng))
	}
	long, fused := 0, 0
	for _, spec := range specs {
		var enc huffEncoder
		if err := enc.build(spec); err != nil {
			t.Fatal(err)
		}
		var dec huffDecoder
		dec.build(&spec.bits, spec.vals)
		var w bitWriter
		type item struct {
			filler, n uint32 // n bits of filler before the code
			sym       byte
			vbits     uint32 // the value bits after it, as many as its size nibble says
		}
		var items []item
		written := uint32(0)
		for offset := uint32(0); offset < 8; offset++ {
			for _, k := range rng.Perm(len(spec.vals)) {
				sym := spec.vals[k]
				size := uint(sym & 0x0F)
				n := (offset-written)%8 + 8*uint32(rng.Intn(2))
				it := item{uint32(rng.Intn(1 << n)), n, sym, uint32(rng.Intn(1 << size))}
				items = append(items, it)
				w.writeBits(it.filler, uint(n))
				code, l := enc.lookup(sym)
				w.writeBits(code<<size|it.vbits, l+size)
				written += n + enc[sym]&31 + uint32(size)
				switch l := uint(enc[sym] & 31); {
				case l > lutBits:
					long++
				case l+size <= lutBits:
					fused++
				}
			}
		}
		w.flush()
		fast, slow := &bitReader{data: w.out}, &bitReader{data: w.out}
		for i, it := range items {
			if a, b := fast.readBits(uint(it.n)), slow.readBits(uint(it.n)); a != it.filler || b != it.filler {
				t.Fatalf("item %d: filler %d / %d, written %d", i, a, b, it.filler)
			}
			size := uint(it.sym & 0x0F)
			var got byte
			var v int32
			var err error
			if i%2 == 0 {
				got, v, err = dec.decodeValue(fast)
			} else {
				got, err = dec.decode(fast)
				v = extend(fast.readBits(size), size)
			}
			ref, ok := referenceDecode(spec, slow)
			if err != nil || !ok || got != ref || got != it.sym {
				t.Fatalf("item %d: look-up %#x (%v), canonical %#x (%v), written %#x", i, got, err, ref, ok, it.sym)
			}
			if want := extend(slow.readBits(size), size); v != want || want != extend(it.vbits, size) {
				t.Fatalf("item %d, symbol %#x: value %d, canonical %d, written bits %b", i, it.sym, v, want, it.vbits)
			}
		}
		if fast.overrun() {
			t.Fatal("decoding what was written overran it")
		}
	}
	if long < 1000 {
		t.Errorf("only %d codes longer than the look-up width were exercised", long)
	}
	if fused < 1000 {
		t.Errorf("only %d values within the look-up width were exercised", fused)
	}
}

// FuzzHuffmanTable feeds a DHT segment's payload, as a stream carries it,
// and a bit stream to parseDHT and the table decoder. No input may panic.
// And where the segment's first table does not over-subscribe the code
// space, what decodeValue reads from the bit stream, symbol and value, is
// what the canonical procedure reads, up to the same error. The seeds under
// testdata/fuzz are the Annex K tables and the optimal tables of a bench-v1
// image's progressive scans, each with the entropy-coded data it came with.
func FuzzHuffmanTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, dht, stream []byte) {
		d := decoder{s: new(scratch)}
		if len(dht) == 0 || d.parseDHT(dht) != nil {
			return
		}
		n := 0
		for _, c := range dht[1:17] {
			n += int(c)
		}
		spec := &huffSpec{bits: [16]byte(dht[1:17]), vals: dht[17 : 17+n]}
		tab := d.dcTab[dht[0]&0x0F]
		if dht[0]>>4 == 1 {
			tab = d.acTab[dht[0]&0x0F]
		}
		if len(dht) > 17+n { // a later table of the segment may have replaced it
			tab = new(huffDecoder)
			tab.build(&spec.bits, spec.vals)
		}
		space := 0
		for l, c := range spec.bits {
			space += int(c) << (15 - l)
		}
		fast, slow := &bitReader{data: stream}, &bitReader{data: stream}
		for i := 0; i <= 8*len(stream) && !fast.overrun(); i++ {
			rs, v, err := tab.decodeValue(fast)
			if space > 1<<16 {
				if err != nil {
					return
				}
				continue
			}
			sym, ok := referenceDecode(spec, slow)
			if (err == nil) != ok {
				t.Fatalf("code %d: table decoder err = %v, canonical ok = %v", i, err, ok)
			}
			if !ok {
				return
			}
			size := uint(sym & 0x0F)
			if want := extend(slow.readBits(size), size); rs != sym || v != want {
				t.Fatalf("code %d: table decoder (%#x, %d), canonical (%#x, %d)", i, rs, v, sym, want)
			}
		}
	})
}

// referenceRefine is bitReader.refine as it was before its per-coefficient
// branches became masks, word for word: what the masked walk must agree
// with on every block, band and bit stream.
func referenceRefine(r *bitReader, blk *block, k, last, run int, p1, m1 int32) (int, int) {
	if k > last {
		return k, run
	}
	acc, nbit := r.acc, r.nbit
	band := blk[k : last+1]
	for j, c := range band {
		if c == 0 {
			if run == 0 {
				r.acc, r.nbit = acc, nbit
				return k + j, 0
			}
			run--
			continue
		}
		if nbit <= 0 {
			r.acc, r.nbit = acc, nbit
			r.fill()
			acc, nbit = r.acc, r.nbit
		}
		if int64(acc) < 0 && c&p1 == 0 {
			if c >= 0 {
				band[j] = c + p1
			} else {
				band[j] = c + m1
			}
		}
		acc <<= 1
		nbit--
	}
	r.acc, r.nbit = acc, nbit
	return last + 1, run
}

// TestRefineMatchesReference drives refine and referenceRefine from the same
// state over random blocks — zeros and non-zeros mixed, negative values,
// bit p1 already set or not, every point transform 0–13, every zero run
// 0–15 and the EOB run's 64, walks that start past their last index — and
// short bit streams, stuffed bytes included, read some way into first, so
// that walks run the accumulator empty, refill it from the data and from the
// zeros fed past its end. The two must return the same, leave the same
// block and leave the reader in the same state.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	refilled, zeroFed := 0, 0
	for i := 0; i < 200000; i++ {
		al := rng.Intn(14)
		p1 := int32(1) << al
		var blk block
		for k := range blk {
			sign := int32(1 - 2*rng.Intn(2))
			switch rng.Intn(4) {
			case 0, 1: // zero
			case 2: // what the scans above bit al leave: a multiple of 2·p1
				blk[k] = sign * int32(1+rng.Intn(100)) * 2 * p1
			default: // anything, bit p1 set or not
				blk[k] = sign * int32(1+rng.Intn(1<<16))
			}
		}
		last := rng.Intn(65) - 1
		k := rng.Intn(64)
		run := rng.Intn(16)
		if rng.Intn(4) == 0 {
			run = 64
		}
		data := make([]byte, rng.Intn(12))
		for j := range data {
			data[j] = byte(rng.Intn(256))
			if rng.Intn(6) == 0 {
				data[j] = 0xFF
			}
		}
		r := bitReader{data: data}
		for skip := rng.Intn(8*len(data) + 8); skip > 0; {
			n := min(skip, 1+rng.Intn(16))
			r.readBits(uint(n))
			skip -= n
		}
		before, want, wantBlk := r, r, blk
		gotK, gotRun := r.refine(&blk, k, last, run, p1)
		wantK, wantRun := referenceRefine(&want, &wantBlk, k, last, run, p1, -p1)
		sameReader := r.acc == want.acc && r.nbit == want.nbit && r.pos == want.pos && r.zeros == want.zeros
		if gotK != wantK || gotRun != wantRun || blk != wantBlk || !sameReader {
			t.Fatalf("case %d: al %d, k %d, last %d, run %d: returned (%d, %d), want (%d, %d)\nblock %v\n want %v\nreader %+v, want %+v",
				i, al, k, last, run, gotK, gotRun, wantK, wantRun, blk, wantBlk, r, want)
		}
		if r.pos > before.pos {
			refilled++
		}
		if r.zeros > before.zeros {
			zeroFed++
		}
	}
	if refilled < 1000 || zeroFed < 1000 {
		t.Errorf("%d walks refilled from the data and %d from past its end, want 1000 of each", refilled, zeroFed)
	}
}

// referenceDecodeDCDiff, referenceReadEOBRun and the four referenceDecode…
// loops below are the scan loops as they were before they held the bit
// accumulator in locals, word for word but for their names: every symbol
// through decodeValue and every bit through the bitReader's fields. They are
// what TestScanLoopsMatchReference holds the loops to.
func referenceDecodeDCDiff(r *bitReader, dec *huffDecoder) (int32, error) {
	// The symbol is the category, which decodeValue reads as a size nibble:
	// right up to 15. Category 16's size nibble is 0, so its bits follow.
	s, v, err := dec.decodeValue(r)
	switch {
	case err != nil || s < 16:
		return v, err
	case s > maxDCCategory:
		return 0, fmt.Errorf("jpegc: DC difference category %d out of range", s)
	}
	return extend(r.take(16), 16), nil
}

func (d *decoder) referenceDecodeBaselineScan(r *bitReader, comps *[3]scanComp) error {
	var dcPred [3]int32
	var padding block
	var padLast uint8
	for _, b := range d.s.order {
		blk, lastNZ := &d.s.blocks[b.comp][b.idx], &d.s.lastNZ[b.comp][b.idx]
		if b.pad {
			blk, lastNZ = &padding, &padLast // decode MCU padding, then discard
		}
		sc := &comps[b.comp]
		diff, err := referenceDecodeDCDiff(r, sc.dc)
		if err != nil {
			return err
		}
		dcPred[b.comp] += diff
		blk[0] = dcPred[b.comp]
		last := 0 // the highest index written: the indices only rise
		for k := 1; k < 64; {
			rs, v, err := sc.ac.decodeValue(r)
			if err != nil {
				return err
			}
			run := int(rs >> 4)
			if rs&0x0F == 0 {
				if run == 15 {
					k += 16 // ZRL
					continue
				}
				break // EOB
			}
			k += run
			if k > 63 {
				return fmt.Errorf("jpegc: AC coefficient index out of range")
			}
			blk[k] = v
			last = k
			k++
		}
		*lastNZ = max(*lastNZ, uint8(last))
	}
	return nil
}

func (d *decoder) referenceDecodeDCFirst(r *bitReader, comps *[3]scanComp, al int) error {
	var dcPred [3]int32
	for _, b := range d.s.order {
		diff, err := referenceDecodeDCDiff(r, comps[b.comp].dc)
		if err != nil {
			return err
		}
		dcPred[b.comp] += diff
		if !b.pad {
			d.s.blocks[b.comp][b.idx][0] = dcPred[b.comp] << uint(al)
		}
	}
	return nil
}

func referenceReadEOBRun(r *bitReader, run int) int {
	return 1<<uint(run) + int(r.readBits(uint(run)))
}

func (d *decoder) referenceDecodeACFirst(r *bitReader, sc scanComp, ss, se, al int) error {
	eobrun := 0
	blocks, lastNZ := d.s.blocks[sc.comp], d.s.lastNZ[sc.comp]
	for i := range blocks {
		if eobrun > 0 {
			eobrun--
			continue
		}
		blk := &blocks[i]
		last := 0 // the highest index written: the indices only rise
		for k := ss; k <= se; {
			rs, v, err := sc.ac.decodeValue(r)
			if err != nil {
				return err
			}
			run := int(rs >> 4)
			if rs&0x0F == 0 {
				if run != 15 {
					eobrun = referenceReadEOBRun(r, run) - 1 // this block is the first of the run
					break
				}
				k += 16 // ZRL
				continue
			}
			k += run
			if k > se {
				return fmt.Errorf("jpegc: AC coefficient index out of band")
			}
			blk[k] = v << uint(al)
			last = k
			k++
		}
		lastNZ[i] = max(lastNZ[i], uint8(last))
	}
	return nil
}

func (d *decoder) referenceDecodeACRefine(r *bitReader, sc scanComp, ss, se, al int) error {
	p1 := int32(1) << uint(al)
	eobrun := 0
	blocks, lastNZ := d.s.blocks[sc.comp], d.s.lastNZ[sc.comp]
	for i := range blocks {
		blk := &blocks[i]
		// Only a coefficient already non-zero has a correction bit, and
		// none is past last: from there on the band is a run of zeros.
		last := min(se, int(lastNZ[i]))
		k := ss
		if eobrun == 0 {
			for ; k <= se; k++ {
				// A new coefficient's value is its sign bit: ±1.
				rs, v, err := sc.ac.decodeValue(r)
				if err != nil {
					return err
				}
				run, size := int(rs>>4), int(rs&0x0F)
				if size > 1 {
					return fmt.Errorf("jpegc: bad refinement size %d", size)
				}
				if size == 0 && run != 15 {
					eobrun = referenceReadEOBRun(r, run)
					break // remaining coefficients handled by EOB logic below
				}
				// Advance to the (run+1)-th zero-history coefficient,
				// correcting the nonzero-history ones passed. For a
				// run/size symbol that zero receives the newly significant
				// value; for ZRL (run=15, size=0) it is the 16th skipped
				// zero, and the loop's k++ steps past it.
				k, run = r.refine(blk, k, last, run, p1)
				k += run
				if k > se {
					return fmt.Errorf("jpegc: AC coefficient index out of band")
				}
				if size != 0 {
					blk[k] = v << uint(al)
					lastNZ[i] = max(lastNZ[i], uint8(k))
				}
			}
		}
		if eobrun > 0 {
			// In an EOB run: every remaining nonzero coefficient of the
			// band is corrected, and no zero ends the walk.
			r.refine(blk, k, last, 64, p1)
			eobrun--
		}
	}
	return nil
}

// scanTable is one Huffman table of TestScanLoopsMatchReference, built both
// ways.
type scanTable struct {
	enc huffEncoder
	dec huffDecoder
}

// newScanTable builds the optimal table for syms under weights that span
// four decades, so that the deepest codes are longer than the look-up width
// and many values do not fit beside their code.
func newScanTable(t *testing.T, rng *rand.Rand, syms []byte) *scanTable {
	t.Helper()
	var f freqCounter
	for _, s := range syms {
		f[s] = int64(math.Exp(rng.Float64() * 9))
	}
	spec := &huffSpec{}
	f.buildOptimal(spec)
	tab := new(scanTable)
	if err := tab.enc.build(spec); err != nil {
		t.Fatal(err)
	}
	tab.dec.build(&spec.bits, spec.vals)
	return tab
}

// filledScratch returns a scratch of geo's geometry holding what earlier
// scans could have left, drawn as TestRefineMatchesReference draws a block:
// zeros, multiples of 2<<al, anything; with lastNZ exact.
func filledScratch(rng *rand.Rand, geo coeffImage, al int) *scratch {
	s := new(scratch)
	s.setGeometry(&geo)
	for c := 0; c < geo.NumComps; c++ {
		for i := range s.blocks[c] {
			blk := &s.blocks[c][i]
			for k := range blk {
				sign := int32(1 - 2*rng.Intn(2))
				switch rng.Intn(4) {
				case 0, 1: // zero
				case 2:
					blk[k] = sign * int32(1+rng.Intn(100)) * 2 << al
				default:
					blk[k] = sign * int32(1+rng.Intn(1<<16))
				}
				if blk[k] != 0 {
					s.lastNZ[c][i] = uint8(k)
				}
			}
		}
	}
	return s
}

// cloneScratch copies what a scan loop reads and writes of s.
func cloneScratch(s *scratch) *scratch {
	c := new(scratch)
	c.setGeometry(&s.geo)
	for comp := range s.blocks {
		copy(c.blocks[comp], s.blocks[comp])
		copy(c.lastNZ[comp], s.lastNZ[comp])
	}
	c.order = slices.Clone(s.order)
	return c
}

// TestScanLoopsMatchReference holds the four scan loops — the first DC pass,
// the baseline scan, the first AC pass and the AC refinement — to their
// predecessors kept above, from the same scratch and the same segment: the
// same error, the same blocks and lastNZ, and the reader left in the same
// state. Each case picks its tables from 64 of each kind built at the start,
// whose deepest codes are longer than the look-up width and many of whose
// values do not fit beside their code, and writes a random sequence of their
// symbols — EOB runs of every length 0–14, ZRLs, DC category 16 and 17,
// refinement sizes 0–2 — each with random value, run-length and correction
// bits. Then it mangles the segment: data bytes 0xFF (stuffed), a fill byte,
// a byte of garbage, and the end cut off, so that scans overrun it. Narrow
// bands make many runs pass Se. The counts it logs are of symbols written
// and of how the reference's scans ended; each must reach 1 000.
func TestScanLoopsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var dcSyms, acSyms, refineSyms []byte
	for s := 0; s <= 17; s++ {
		dcSyms = append(dcSyms, byte(s))
	}
	for run := 0; run < 16; run++ {
		acSyms = append(acSyms, byte(run<<4)) // EOBn, and ZRL at run 15
		refineSyms = append(refineSyms, byte(run<<4), byte(run<<4|1))
		for size := 1; size < 16; size += 1 + run%3 {
			acSyms = append(acSyms, byte(run<<4|size))
		}
	}
	refineSyms = append(refineSyms, 0x02, 0x12) // sizes a refinement refuses
	var dcTabs, acTabs, refineTabs [64]*scanTable
	for j := range dcTabs {
		dcTabs[j] = newScanTable(t, rng, dcSyms)
		acTabs[j] = newScanTable(t, rng, acSyms)
		refineTabs[j] = newScanTable(t, rng, refineSyms)
	}
	var eobs [15]int
	var long, unfused, zrl, stuffed, clean, overrun, pastBand int
	const cases = 24000
	for i := 0; i < cases; i++ {
		kind := i % 4 // DC first, baseline, AC first, AC refinement
		geo := coeffImage{Width: 8 * (1 + rng.Intn(24)), Height: 8, NumComps: 1}
		comps := []int{0}
		if kind < 2 { // interleaved, MCU padding and all
			geo = coeffImage{Width: 1 + rng.Intn(32), Height: 1 + rng.Intn(32), NumComps: 1 + 2*rng.Intn(2)}
			geo.Subsample420 = geo.NumComps == 3 && rng.Intn(2) == 0
			comps = []int{0, 1, 2}[:geo.NumComps]
			if kind == 0 && rng.Intn(4) == 0 {
				comps = []int{rng.Intn(geo.NumComps)}
			}
		}
		al := rng.Intn(14)
		ss := 1 + rng.Intn(63)
		se := ss + rng.Intn(64-ss)
		want := filledScratch(rng, geo, al)
		want.order = geo.mcuOrder(nil, comps)
		got := cloneScratch(want)

		dc, ac, syms := dcTabs[rng.Intn(len(dcTabs))], acTabs[rng.Intn(len(acTabs))], acSyms
		if kind == 3 {
			ac, syms = refineTabs[rng.Intn(len(refineTabs))], refineSyms
		}
		var tabs [3]scanComp
		for c := range tabs {
			tabs[c] = scanComp{comp: c, dc: &dc.dec, ac: &ac.dec}
		}
		var w bitWriter
		put := func(tab *scanTable, sym byte, extra uint) {
			code, l := tab.enc.lookup(sym)
			w.writeBits(code, l)
			w.writeBits(uint32(rng.Int63())&(1<<extra-1), extra)
			switch size := uint(sym & 0x0F); {
			case l > lutBits:
				long++
			case l+size > lutBits:
				unfused++
			}
		}
		putDC := func() {
			sym := dcSyms[rng.Intn(len(dcSyms))]
			extra := uint(sym & 0x0F)
			if sym == 16 {
				extra = 16
			}
			put(dc, sym, extra)
		}
		putAC := func() {
			sym := syms[rng.Intn(len(syms))]
			switch run := sym >> 4; {
			case rng.Intn(8) == 0: // an EOB run, long or short
				sym = byte(rng.Intn(15)) << 4
			case sym&0x0F == 0 && run < 15:
				sym |= 1
			}
			extra := uint(sym & 0x0F)
			if run := sym >> 4; extra == 0 && run < 15 {
				extra = uint(run)
				eobs[run]++
			} else if extra == 0 {
				zrl++
			}
			put(ac, sym, extra)
			if kind == 3 { // correction bits
				n := uint(rng.Intn(4))
				w.writeBits(uint32(rng.Intn(1<<n)), n)
			}
		}
		blocks := len(want.order)
		if kind >= 2 {
			blocks = len(want.blocks[0])
		}
		for b := 0; b < blocks; b++ {
			switch kind {
			case 0:
				putDC()
			case 1:
				putDC()
				for n := rng.Intn(12); n > 0; n-- {
					putAC()
				}
				if rng.Intn(4) != 0 {
					put(ac, 0x00, 0) // EOB
				}
			default:
				for n := rng.Intn(4); n > 0; n-- {
					putAC()
				}
			}
		}
		w.flush()
		data := w.out
		for n := rng.Intn(3); n > 0; n-- { // data bytes 0xFF
			data = slices.Insert(data, rng.Intn(len(data)+1), 0xFF, 0x00)
		}
		if rng.Intn(5) == 0 { // a fill byte
			data = slices.Insert(data, rng.Intn(len(data)+1), 0xFF)
		}
		if len(data) > 0 && rng.Intn(4) == 0 {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(3) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		if bytes.Contains(data, []byte{0xFF, 0x00}) {
			stuffed++
		}

		dWant, dGot := decoder{s: want}, decoder{s: got}
		rWant, rGot := &bitReader{data: data}, &bitReader{data: data}
		var errWant, errGot error
		switch kind {
		case 0:
			errWant, errGot = dWant.referenceDecodeDCFirst(rWant, &tabs, al), dGot.decodeDCFirst(rGot, &tabs, al)
		case 1:
			errWant, errGot = dWant.referenceDecodeBaselineScan(rWant, &tabs), dGot.decodeBaselineScan(rGot, &tabs)
		case 2:
			errWant, errGot = dWant.referenceDecodeACFirst(rWant, tabs[0], ss, se, al), dGot.decodeACFirst(rGot, tabs[0], ss, se, al)
		default:
			errWant, errGot = dWant.referenceDecodeACRefine(rWant, tabs[0], ss, se, al), dGot.decodeACRefine(rGot, tabs[0], ss, se, al)
		}
		sameReader := rGot.pos == rWant.pos && rGot.acc == rWant.acc && rGot.nbit == rWant.nbit && rGot.zeros == rWant.zeros
		sameBlocks := true
		for c := range got.blocks {
			sameBlocks = sameBlocks && slices.Equal(got.blocks[c], want.blocks[c]) && slices.Equal(got.lastNZ[c], want.lastNZ[c])
		}
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) || !sameReader || !sameBlocks {
			t.Fatalf("case %d (kind %d, %d bytes, band %d..%d, al %d): error %v, want %v; same blocks %v; reader pos %d acc %#x nbit %d zeros %d, want %d %#x %d %d",
				i, kind, len(data), ss, se, al, errGot, errWant, sameBlocks,
				rGot.pos, rGot.acc, rGot.nbit, rGot.zeros, rWant.pos, rWant.acc, rWant.nbit, rWant.zeros)
		}
		switch {
		case errWant == nil && rWant.overrun():
			overrun++
		case errWant == nil:
			clean++
		case strings.Contains(errWant.Error(), "out of band"):
			pastBand++
		}
	}
	t.Logf("long codes %d, unfused values %d, ZRLs %d, EOB runs by length %v; cases: stuffed %d, clean %d, overrun %d, past Se %d",
		long, unfused, zrl, eobs, stuffed, clean, overrun, pastBand)
	for n, c := range eobs {
		if c < 1000 {
			t.Errorf("%d EOB runs of length %d written, want 1000", c, n)
		}
	}
	if long < 1000 || unfused < 1000 || zrl < 1000 || stuffed < 1000 || clean < 1000 || overrun < 1000 || pastBand < 1000 {
		t.Errorf("want 1000 of each")
	}
}

// referenceNonzeros is the list the encoder's AC walks ran over before they
// walked significance bitmaps, word for word: the coefficients of
// blk[ss..end] that are non-zero after the point transform al — their
// zigzag positions and their magnitudes |v| >> al — and how many there are.
func referenceNonzeros(blk *block, ss, end int, al uint, pos *[64]uint8, mag *[64]int32) int {
	if end < ss {
		return 0
	}
	n := 0
	for i, v := range blk[ss : end+1] {
		neg := v >> 31
		a := ((v ^ neg) - neg) >> (al & 31)
		pos[n&63], mag[n&63] = uint8(ss+i), a
		if a != 0 {
			n++
		}
	}
	return n
}

// referenceWalkACFirst is walkACFirst over referenceNonzeros' list.
func (s *scratch) referenceWalkACFirst(scan ScanSpec) {
	c := scan.Comps[0]
	t := tableAC | tableSlot(c)
	eob := eobRun{t: t}
	blocks, lastNZ := s.blocks[c], s.lastNZ[c]
	var pos [64]uint8
	var mag [64]int32
	for i := range blocks {
		blk := &blocks[i]
		n := referenceNonzeros(blk, scan.Ss, min(scan.Se, int(lastNZ[i])), uint(scan.Al), &pos, &mag)
		prev := scan.Ss - 1
		for j := 0; j < n; j++ {
			k := int(pos[j])
			r := k - prev - 1
			prev = k
			eob.flush(s)
			for ; r > 15; r -= 16 {
				s.symbol(t, 0xF0, 0, 0) // ZRL
			}
			neg := blk[k] >> 31
			size, vbits := magnitude((mag[j] ^ neg) - neg)
			s.symbol(t, byte(r<<4)|byte(size), vbits, size)
		}
		if prev < scan.Se {
			eob.extend(s)
			if eob.n == 0x7FFF {
				eob.flush(s)
			}
		}
	}
	eob.flush(s)
}

// referenceWalkACRefine is walkACRefine over referenceNonzeros' list, with
// the backward search for the last newly significant coefficient.
func (s *scratch) referenceWalkACRefine(scan ScanSpec) {
	c := scan.Comps[0]
	t := tableAC | tableSlot(c)
	eob := eobRun{t: t}
	blocks, lastNZ := s.blocks[c], s.lastNZ[c]
	var pos [64]uint8
	var mag [64]int32
	for i := range blocks {
		blk := &blocks[i]
		n := referenceNonzeros(blk, scan.Ss, min(scan.Se, int(lastNZ[i])), uint(scan.Al), &pos, &mag)
		lastNew := 0
		for j := n - 1; j >= 0 && lastNew == 0; j-- {
			if mag[j] == 1 {
				lastNew = int(pos[j])
			}
		}
		r, prev := 0, scan.Ss-1
		var cur uint64
		var ncur uint
		for j := 0; j < n; j++ {
			k, a := int(pos[j]), mag[j]
			r += k - prev - 1
			prev = k
			for r > 15 && k <= lastNew {
				eob.flush(s)
				s.symbol(t, 0xF0, 0, 0)
				r -= 16
				s.rawBits(cur, ncur)
				cur, ncur = 0, 0
			}
			if a > 1 {
				cur = cur<<1 | uint64(a&1)
				ncur++
				continue
			}
			eob.flush(s)
			s.symbol(t, byte(r<<4)|1, uint32(blk[k]>>31)+1, 1)
			s.rawBits(cur, ncur)
			cur, ncur = 0, 0
			r = 0
		}
		if r > 0 || prev < scan.Se || ncur > 0 {
			eob.extend(s)
			s.rawBits(cur, ncur)
			eob.corr += int(ncur)
			if eob.n == 0x7FFF || eob.corr > maxCorrBits {
				eob.flush(s)
			}
		}
	}
	eob.flush(s)
}

// referenceWalkBaseline is walkBaseline over referenceNonzeros' list.
func (s *scratch) referenceWalkBaseline(comps []int) {
	s.order = s.geo.mcuOrder(s.order[:0], comps)
	var prevDC [3]int32
	var pos [64]uint8
	var mag [64]int32
	for _, b := range s.order {
		blk := &s.blocks[b.comp][b.idx]
		slot := tableSlot(int(b.comp))
		size, vbits := magnitude(blk[0] - prevDC[b.comp])
		prevDC[b.comp] = blk[0]
		s.symbol(slot, byte(size), vbits, size)
		last := int(s.lastNZ[b.comp][b.idx])
		n := referenceNonzeros(blk, 1, last, 0, &pos, &mag)
		prev := 0
		for j := 0; j < n; j++ {
			k := int(pos[j])
			run := k - prev - 1
			prev = k
			for ; run > 15; run -= 16 {
				s.symbol(tableAC|slot, 0xF0, 0, 0) // ZRL
			}
			size, vbits := magnitude(blk[k])
			s.symbol(tableAC|slot, byte(run<<4)|byte(size), vbits, size)
		}
		if last < 63 {
			s.symbol(tableAC|slot, 0x00, 0, 0) // EOB
		}
	}
}

// edgeCoeffs returns an image of geo whose first blocks, in every
// component, are the cases a bitmap walk can get wrong — all zero; a single
// non-zero at index 63, at index 1, at 5 or 6 on either side of the Ss = 6
// band edge of the luma high-AC scan; every index set — each with values
// exactly 1<<al and 2<<al - 1 for al = 0, 1, 2, either sign, and 1<<al - 1,
// which the point transform al makes zero; the rest are rng's.
func edgeCoeffs(rng *rand.Rand, geo coeffImage) *coeffs {
	edges := []block{{}}
	every := make([]int, 63)
	for k := range every {
		every[k] = k + 1
	}
	for al := 0; al < sigLevels; al++ {
		for _, v := range []int32{1 << al, 2<<al - 1, -(1 << al), -(2<<al - 1), 1<<al - 1} {
			for _, at := range [][]int{{63}, {1}, {5}, {6}, {5, 6}, {1, 63}, every} {
				var b block
				for _, k := range at {
					b[k] = v
				}
				edges = append(edges, b)
			}
		}
	}
	c := newCoeffs(geo)
	random := randomCoeffs(rng)
	for comp := 0; comp < geo.NumComps; comp++ {
		for i := range c.blocks[comp] {
			if i >= len(edges) {
				c.blocks[comp][i] = random.blocks[0][i%len(random.blocks[0])]
				continue
			}
			for k, at := range zigzag {
				c.blocks[comp][i][at] = edges[i][k]
			}
		}
	}
	return c
}

// TestWalksMatchReference holds the encoder's bitmap walks to the list
// walks they replaced: the same tokens and the same symbol counts for every
// AC first pass at Al 0, 1 and 2 and every refinement at Al 0 and 1, over
// the default scripts' bands and the widest and narrowest others, and for
// the baseline walk — on random images, gray and color, and on images whose
// first blocks are edgeCoeffs' cases.
func TestWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var images []*coeffs
	for i := 0; i < 20; i++ {
		images = append(images, randomCoeffs(rng))
	}
	for _, geo := range []coeffImage{
		{Width: 8 * 160, Height: 8, NumComps: 1},
		{Width: 8 * 160, Height: 8, NumComps: 3},
		{Width: 16 * 160, Height: 16, NumComps: 3, Subsample420: true},
	} {
		geo.Quant[0], geo.Quant[1] = quantTables(50)
		images = append(images, edgeCoeffs(rng, geo))
	}
	bands := [][2]int{{1, 5}, {6, 63}, {1, 63}, {1, 1}, {63, 63}, {5, 6}}
	for n, ci := range images {
		s, err := ci.sealed()
		if err != nil {
			t.Fatalf("image %d: %v", n, err)
		}
		same := func(what string, walk, reference func()) {
			t.Helper()
			s.toks, s.freq = s.toks[:0], [4]freqCounter{}
			walk()
			got, gotFreq := slices.Clone(s.toks), s.freq
			s.toks, s.freq = s.toks[:0], [4]freqCounter{}
			reference()
			if !slices.Equal(got, s.toks) || gotFreq != s.freq {
				t.Fatalf("image %d (%d components), %s: %d tokens, want %d, or the counts differ",
					n, ci.geo.NumComps, what, len(got), len(s.toks))
			}
		}
		comps := []int{0, 1, 2}[:ci.geo.NumComps]
		same("baseline", func() { s.walkBaseline(comps) }, func() { s.referenceWalkBaseline(comps) })
		for _, c := range comps {
			for _, band := range bands {
				for al := 0; al < sigLevels; al++ {
					scan := ScanSpec{Comps: []int{c}, Ss: band[0], Se: band[1], Al: al}
					same(fmt.Sprintf("%+v", scan), func() { s.walkACFirst(scan) }, func() { s.referenceWalkACFirst(scan) })
					if al+1 < sigLevels {
						scan.Ah = al + 1
						same(fmt.Sprintf("%+v", scan), func() { s.walkACRefine(scan) }, func() { s.referenceWalkACRefine(scan) })
					}
				}
			}
		}
	}
}

// TestScriptsWithinBitmaps: seal records significance bitmaps for the
// point transforms 0 to sigLevels-1 only, and a refinement scan at Al reads
// the bitmaps for Al and Al+1. A default script that asks for more would
// index past them.
func TestScriptsWithinBitmaps(t *testing.T) {
	for _, n := range []int{1, 3} {
		for i, scan := range defaultScanScript(n) {
			if scan.Al >= sigLevels || (scan.Ah > 0 && scan.Al+1 >= sigLevels) {
				t.Errorf("%d-component script, scan %d: %+v needs a bitmap past the %d seal records",
					n, i+1, scan, sigLevels)
			}
		}
	}
}
