package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/jpegc"
)

// cutEntropy returns a baseline JPEG with the second half of its scan data
// removed and the EOI put back: every marker is in place, but the scan ends
// long before its last block.
func cutEntropy(t testing.TB, data []byte) []byte {
	t.Helper()
	idx, err := jpegc.IndexScans(data)
	if err != nil || len(idx.Scans) != 1 {
		t.Fatalf("want a one-scan stream: %d scans, %v", len(idx.Scans), err)
	}
	sc := idx.Scans[0]
	cut := sc.Offset + sc.Length - sc.Length/2
	if data[cut-1] == 0xFF {
		cut-- // not between a 0xFF and its stuff byte
	}
	return append(append([]byte(nil), data[:cut]...), 0xFF, 0xD9)
}

// TestWriteRecordRefusesTruncatedEntropy: a sample whose scan data was cut
// short used to be transcoded from the zeros the bit reader fed past its
// end, and stored.
func TestWriteRecordRefusesTruncatedEntropy(t *testing.T) {
	samples := buildSamples(t, 3)
	samples[1].JPEG = cutEntropy(t, samples[1].JPEG)
	var buf bytes.Buffer
	_, err := WriteRecord(&buf, samples)
	if !errors.Is(err, jpegc.ErrTruncated) {
		t.Fatalf("err = %v, want jpegc.ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("sample %d:", samples[1].ID)) {
		t.Errorf("error does not name the sample: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes of a refused record were written", buf.Len())
	}

	// And through the dataset writer: an error, and no record file left.
	dir := t.TempDir()
	w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		err = w.Append(s)
		if i < 2 && err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(err, jpegc.ErrTruncated) {
		t.Fatalf("flush: err = %v, want jpegc.ErrTruncated", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.pcr")); len(files) != 0 {
		t.Errorf("a refused record left %v behind", files)
	}
}

// TestWriteRecordSameAtAnyParallelism: samples are transcoded on as many
// goroutines as GOMAXPROCS allows, and the record must not show it. Run
// under -race this is also the check that the workers share nothing.
func TestWriteRecordSameAtAnyParallelism(t *testing.T) {
	samples := buildSamples(t, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, opts := range []*RecordOptions{nil, {ScanGroups: 4}} {
			var buf bytes.Buffer
			meta, err := WriteRecordOpts(&buf, samples, opts)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseRecordMeta(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(meta, parsed) {
				t.Fatalf("GOMAXPROCS %d: returned metadata is not what the record parses to", procs)
			}
			if opts != nil {
				continue
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("GOMAXPROCS %d: record differs from the one written at GOMAXPROCS 1", procs)
			}
		}
	}

	// Two bad samples: the error is the first one's in record order,
	// whichever worker got to whichever first.
	samples[2].JPEG = []byte("not a jpeg")
	samples[6].JPEG = cutEntropy(t, samples[6].JPEG)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for range 5 {
			_, err := WriteRecord(io.Discard, samples)
			if err == nil || !strings.Contains(err.Error(), "missing SOI") {
				t.Fatalf("GOMAXPROCS %d: err = %v, want sample 2's (missing SOI)", procs, err)
			}
		}
	}
}

// countingWriter counts the Write calls it receives.
type countingWriter struct {
	calls, bytes int
	failAfter    int // fail every write once this many bytes are in; 0 = never
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.failAfter > 0 && w.bytes+len(p) > w.failAfter {
		return 0, errors.New("disk full")
	}
	w.bytes += len(p)
	return len(p), nil
}

func TestWriteRecordIssuesFewWrites(t *testing.T) {
	samples := buildSamples(t, 12)
	var w countingWriter
	meta, err := WriteRecord(&w, samples)
	if err != nil {
		t.Fatal(err)
	}
	if int64(w.bytes) != meta.TotalLen() {
		t.Fatalf("wrote %d bytes, record is %d", w.bytes, meta.TotalLen())
	}
	// One write for the whole record — not one per (scan group, sample),
	// which would be 120 here.
	if w.calls != 1 {
		t.Errorf("%d writes for a %d-byte record, want 1", w.calls, w.bytes)
	}

	// A failing destination is reported, not swallowed by the buffer.
	if _, err := WriteRecord(&countingWriter{failAfter: 100}, samples); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("err = %v, want the writer's", err)
	}
}

// TestFlushRemovesPartialRecord: when the record cannot be written, no
// half-written file stays beside the whole ones.
func TestFlushRemovesPartialRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateDataset(dir, &DatasetOptions{ImagesPerRecord: 2})
	if err != nil {
		t.Fatal(err)
	}
	samples := buildSamples(t, 4)
	for _, s := range samples[:2] {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(samples[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Sample{ID: 99, JPEG: []byte{0xFF, 0xD8, 0xFF}}); err == nil {
		t.Fatal("a record with an unreadable sample was written")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pcr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != recordName(0) {
		t.Errorf("record files after a failed flush: %v, want only %s", files, recordName(0))
	}
	if _, err := os.Stat(filepath.Join(dir, recordName(1))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("partial record still there: %v", err)
	}
}
