package recordio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTFRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xAB}, 10000),
		[]byte("last"),
	}
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := int64(0)
	for _, rec := range records {
		wantBytes += int64(len(rec) + FrameOverhead)
	}
	if w.BytesWritten() != wantBytes {
		t.Errorf("BytesWritten = %d, want %d", w.BytesWritten(), wantBytes)
	}

	r := NewReader(&buf, int64(buf.Len()))
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestTFRecordQuick(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(payload); err != nil {
			return false
		}
		got, err := NewReader(&buf, int64(buf.Len())).Next()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTFRecordDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(bytes.Repeat([]byte("data"), 100))
	raw := buf.Bytes()

	// Flip one byte at several positions; every flip must be detected.
	for _, pos := range []int{0, 5, 9, 12, 100, len(raw) - 2} {
		dam := append([]byte(nil), raw...)
		dam[pos] ^= 0x01
		_, err := NewReader(bytes.NewReader(dam), int64(len(dam))).Next()
		if err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
}

func TestTFRecordTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(make([]byte, 256))
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 13 {
		_, err := NewReader(bytes.NewReader(raw[:cut]), int64(cut)).Next()
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if errors.Is(err, io.EOF) && cut > 0 {
			t.Fatalf("truncation at %d reported clean EOF", cut)
		}
	}
}

func TestExampleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		e := &Example{
			ID:    rng.Int63(),
			Label: rng.Int63n(1000) - 500,
			JPEG:  make([]byte, rng.Intn(500)),
		}
		rng.Read(e.JPEG)
		got, err := UnmarshalExample(e.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != e.ID || got.Label != e.Label || !bytes.Equal(got.JPEG, e.JPEG) {
			t.Fatalf("example %d mismatch", i)
		}
	}
}

func TestExampleRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalExample([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFilePerImageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := CreateFilePerImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	type img struct {
		id, label int64
		data      []byte
	}
	imgs := []img{
		{0, 3, []byte("aaa")},
		{1, 3, []byte("bbbb")},
		{2, 7, []byte("c")},
	}
	for _, im := range imgs {
		if err := f.Put(im.id, im.label, im.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteManifest(); err != nil {
		t.Fatal(err)
	}

	g, err := OpenFilePerImage(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := g.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listed %d entries", len(entries))
	}
	for i, e := range entries {
		if e.ID != imgs[i].id || e.Label != imgs[i].label {
			t.Errorf("entry %d = %+v", i, e)
		}
		data, err := g.Get(e)
		if err != nil || !bytes.Equal(data, imgs[i].data) {
			t.Errorf("entry %d data mismatch (%v)", i, err)
		}
		if e.Size != int64(len(imgs[i].data)) {
			t.Errorf("entry %d size = %d", i, e.Size)
		}
	}
}

func TestOpenFilePerImageMissing(t *testing.T) {
	if _, err := OpenFilePerImage("/nonexistent/path"); err == nil {
		t.Error("missing dir accepted")
	}
}
