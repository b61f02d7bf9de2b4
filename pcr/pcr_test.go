package pcr_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"image"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/pcr"
)

// synthDir writes a small cars dataset and returns its directory.
func synthDir(t *testing.T, opts ...pcr.Option) (string, int) {
	t.Helper()
	dir := t.TempDir()
	n, err := pcr.Synthesize(dir, "cars", 0.1, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dir, n
}

func TestScanRoundTripAllQualities(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	if ds.NumImages() != n {
		t.Fatalf("NumImages = %d, want %d", ds.NumImages(), n)
	}
	var prevSize int64
	for q := 1; q <= ds.Qualities(); q++ {
		size, err := ds.SizeAtQuality(q)
		if err != nil {
			t.Fatal(err)
		}
		if size <= prevSize {
			t.Errorf("SizeAtQuality(%d) = %d, want > %d", q, size, prevSize)
		}
		prevSize = size

		got := 0
		for s, err := range ds.Scan(context.Background(), q) {
			if err != nil {
				t.Fatalf("Scan at quality %d: %v", q, err)
			}
			if s.Image == nil {
				t.Fatalf("Scan at quality %d: sample %d not decoded", q, s.ID)
			}
			if len(s.JPEG) == 0 {
				t.Fatalf("Scan at quality %d: sample %d has no JPEG stream", q, s.ID)
			}
			got++
		}
		if got != n {
			t.Errorf("Scan at quality %d yielded %d samples, want %d", q, got, n)
		}
	}
}

// Scan must preserve storage order even though decoding is concurrent.
func TestScanPreservesOrder(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	var encoded, decoded []int64
	for s, err := range ds.ScanEncoded(context.Background(), pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, s.ID)
	}
	for s, err := range ds.Scan(context.Background(), pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, s.ID)
	}
	if len(encoded) != len(decoded) {
		t.Fatalf("encoded %d vs decoded %d samples", len(encoded), len(decoded))
	}
	for i := range encoded {
		if encoded[i] != decoded[i] {
			t.Fatalf("order diverges at %d: encoded %d, decoded %d", i, encoded[i], decoded[i])
		}
	}
}

func TestScanContextCancellation(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(4))
	ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	var scanErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, err := range ds.Scan(ctx, pcr.Full) {
			if err != nil {
				scanErr = err
				return
			}
			seen++
			if seen == 3 {
				cancel()
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Scan did not stop after cancellation")
	}
	if !errors.Is(scanErr, context.Canceled) {
		t.Fatalf("Scan error = %v, want context.Canceled", scanErr)
	}
	if seen >= n {
		t.Fatalf("Scan consumed the whole dataset (%d samples) despite cancellation", seen)
	}
}

func TestScanNoSuchQuality(t *testing.T) {
	dir, _ := synthDir(t)
	for _, format := range []pcr.Format{pcr.PCR, pcr.TFRecord} {
		d := dir
		if format != pcr.PCR {
			d = t.TempDir()
			if _, err := pcr.Synthesize(d, "cars", 0.05, 1, pcr.WithFormat(format)); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := pcr.Open(d, pcr.WithFormat(format))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{-1, ds.Qualities() + 1} {
			var got error
			for _, err := range ds.Scan(context.Background(), q) {
				got = err
				break
			}
			if !errors.Is(got, pcr.ErrNoSuchQuality) {
				t.Errorf("%s: Scan quality %d error = %v, want ErrNoSuchQuality", format.Name(), q, got)
			}
		}
		ds.Close()
	}
}

// Truncating a record file must surface as ErrCorrupt, not a bare I/O error.
func TestScanTruncatedRecordIsCorrupt(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	recs, err := filepath.Glob(filepath.Join(dir, "record-*.pcr"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no record files found: %v", err)
	}
	info, err := os.Stat(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(recs[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}

	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var got error
	for _, err := range ds.Scan(context.Background(), pcr.Full) {
		if err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, pcr.ErrCorrupt) {
		t.Fatalf("Scan over truncated record = %v, want ErrCorrupt", got)
	}
}

// Garbage inside the metadata section (not just a short file) must also
// surface as ErrCorrupt: wire-level decode failures are structural damage.
func TestScanGarbledMetadataIsCorrupt(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	recs, err := filepath.Glob(filepath.Join(dir, "record-*.pcr"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no record files found: %v", err)
	}
	f, err := os.OpenFile(recs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the first metadata bytes (after the 8-byte header) with an
	// invalid wire stream.
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var got error
	for _, err := range ds.Scan(context.Background(), 1) {
		if err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, pcr.ErrCorrupt) {
		t.Fatalf("Scan over garbled metadata = %v, want ErrCorrupt", got)
	}
}

// TestRecordDisagreeingWithIndexIsCorrupt: a record file that holds more
// samples than its index entry says — here, that of another dataset,
// padded to the length the index expects — is refused as ErrCorrupt by a
// whole-prefix read, cached or not, filtered or not, and by a sparse one.
// (Through the cache a filtered read used to index its selection past its
// end; an unfiltered one yielded the file's samples.)
func TestRecordDisagreeingWithIndexIsCorrupt(t *testing.T) {
	write := func(n, size int) string {
		dir := t.TempDir()
		w, err := pcr.Create(dir, pcr.WithImagesPerRecord(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			img := image.NewGray(image.Rect(0, 0, size, size))
			for p := range img.Pix {
				img.Pix[p] = uint8(p * (i + 1))
			}
			if err := w.Append(pcr.Sample{ID: int64(i), Label: int64(i % 2), Image: img}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	a, b := write(4, 96), write(8, 8)
	rec := filepath.Join(a, "record-00000.pcr")
	want, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := os.ReadFile(filepath.Join(b, "record-00000.pcr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(swapped) < len(want) {
		swapped = append(swapped, make([]byte, len(want)-len(swapped))...)
	}
	if err := os.WriteFile(rec, swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		for _, filtered := range []bool{false, true} {
			var opts []pcr.Option
			if cached {
				opts = append(opts, pcr.WithCacheBytes(1<<20))
			}
			var scan []pcr.ScanOption
			if filtered {
				scan = append(scan, pcr.WithFilter(pcr.LabelIn(0)))
			}
			ds, err := pcr.Open(a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			n, got := 0, error(nil)
			for _, err := range ds.ScanEncoded(context.Background(), pcr.Full, scan...) {
				if err != nil {
					got = err
					break
				}
				n++
			}
			ds.Close()
			if !errors.Is(got, pcr.ErrCorrupt) {
				t.Errorf("cached %v, filtered %v: %d samples, err = %v; want ErrCorrupt", cached, filtered, n, got)
			}
		}
	}
}

// A flipped byte in a TFRecord frame must also surface as ErrCorrupt.
func TestTFRecordBadCRCIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.05, 1, pcr.WithFormat(pcr.TFRecord)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "data.tfrecord")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// setFirstFrameLength rewrites the first frame's length with a header
	// CRC that matches it, so the length reaches the reader.
	setFirstFrameLength := func(d []byte, n uint64) {
		binary.LittleEndian.PutUint64(d[0:8], n)
		crc := crc32.Checksum(d[0:8], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(d[8:12], (crc>>15|crc<<17)+0xa282ead8)
	}
	for _, tc := range []struct {
		name   string
		damage func([]byte)
	}{
		{"flipped_byte", func(d []byte) { d[len(d)/2] ^= 0xFF }},
		{"3GiB_frame", func(d []byte) { setFirstFrameLength(d, 3<<30) }},
		{"4GiB_plus_1_frame", func(d []byte) { setFirstFrameLength(d, 1<<32+1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), clean...)
			tc.damage(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			ds, err := pcr.Open(dir, pcr.WithFormat(pcr.TFRecord))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			got, grew := firstScanError(ds.Scan(context.Background(), pcr.Full))
			if !errors.Is(got, pcr.ErrCorrupt) {
				t.Fatalf("Scan over damaged tfrecord = %v, want ErrCorrupt", got)
			}
			if grew > 64<<20 {
				t.Errorf("Scan allocated %d bytes before refusing a %d-byte file", grew, len(data))
			}
		})
	}
}

// A file-per-image manifest is read from disk, so its size fields are
// outside input: one edited to 512 GiB is ErrCorrupt on the first read,
// not an allocation of that size.
func TestFilePerImageOversizeManifestEntryIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.05, 1, pcr.WithFormat(pcr.FilePerImage)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	fields := strings.Fields(lines[0])
	fields[len(fields)-1] = "549755813888"
	lines[0] = strings.Join(fields, " ")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := pcr.Open(dir, pcr.WithFormat(pcr.FilePerImage))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	got, grew := firstScanError(ds.ScanEncoded(context.Background(), pcr.Full))
	if !errors.Is(got, pcr.ErrCorrupt) {
		t.Fatalf("ScanEncoded over an oversize manifest entry = %v, want ErrCorrupt", got)
	}
	if grew > 64<<20 {
		t.Errorf("ScanEncoded allocated %d bytes before refusing", grew)
	}
}

// firstScanError runs a scan to its first error and reports the bytes
// allocated on the way.
func firstScanError[T any](scan iter.Seq2[T, error]) (error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var got error
	for _, err := range scan {
		if err != nil {
			got = err
			break
		}
	}
	runtime.ReadMemStats(&after)
	return got, after.TotalAlloc - before.TotalAlloc
}

// Scanning at a low quality then a higher one through the cache must serve
// the second pass by delta upgrades, not full re-reads.
func TestCacheUpgradeAcrossQualities(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir, pcr.WithCacheBytes(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	ctx := context.Background()
	for _, err := range ds.ScanEncoded(ctx, 1) {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats, ok := ds.CacheStats()
	if !ok {
		t.Fatal("CacheStats not available with WithCacheBytes set")
	}
	if stats.Misses == 0 {
		t.Fatalf("first pass recorded no misses: %+v", stats)
	}
	lowFetched := stats.BytesFetched

	for _, err := range ds.ScanEncoded(ctx, pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
	}
	stats, _ = ds.CacheStats()
	if stats.UpgradeHits == 0 {
		t.Fatalf("second pass at higher quality recorded no upgrade hits: %+v", stats)
	}
	full, err := ds.SizeAtQuality(pcr.Full)
	if err != nil {
		t.Fatal(err)
	}
	// Total fetched = low prefixes + deltas = exactly one full-dataset read.
	if stats.BytesFetched != full {
		t.Errorf("BytesFetched = %d, want %d (low %d + deltas)", stats.BytesFetched, full, lowFetched)
	}

	// Third pass at full quality: everything cached, no new fetches.
	for _, err := range ds.ScanEncoded(ctx, pcr.Full) {
		if err != nil {
			t.Fatal(err)
		}
	}
	after, _ := ds.CacheStats()
	if after.BytesFetched != stats.BytesFetched {
		t.Errorf("cached pass fetched %d new bytes", after.BytesFetched-stats.BytesFetched)
	}
}

func TestWithScanGroupsCoalesces(t *testing.T) {
	dir := t.TempDir()
	n, err := pcr.Synthesize(dir, "cars", 0.1, 1, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(3))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Qualities() != 3 {
		t.Fatalf("Qualities = %d, want 3", ds.Qualities())
	}
	for q := 1; q <= 3; q++ {
		got := 0
		for s, err := range ds.Scan(context.Background(), q) {
			if err != nil {
				t.Fatal(err)
			}
			if s.Image == nil {
				t.Fatal("sample not decoded")
			}
			got++
		}
		if got != n {
			t.Fatalf("quality %d: %d samples, want %d", q, got, n)
		}
	}
}

func TestReadRecordRandomAccess(t *testing.T) {
	dir, _ := synthDir(t, pcr.WithImagesPerRecord(8))
	ds, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	samples, err := ds.ReadRecord(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.RecordImages(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != want {
		t.Fatalf("ReadRecord yielded %d samples, want %d", len(samples), want)
	}
	for _, s := range samples {
		if s.Image == nil {
			t.Fatalf("sample %d not decoded", s.ID)
		}
	}

	// Record access on a non-record format is ErrUnsupported.
	tfDir := t.TempDir()
	if _, err := pcr.Synthesize(tfDir, "cars", 0.05, 1, pcr.WithFormat(pcr.TFRecord)); err != nil {
		t.Fatal(err)
	}
	tf, err := pcr.Open(tfDir, pcr.WithFormat(pcr.TFRecord))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if _, err := tf.ReadRecord(context.Background(), 0, 1); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("ReadRecord on tfrecord = %v, want ErrUnsupported", err)
	}
}

func TestOpenUnknownFormatName(t *testing.T) {
	if _, err := pcr.FormatByName("parquet"); err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("FormatByName = %v, want unknown-format error", err)
	}
}
