package pcr_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/pcr"
)

// sameDirFiles fails unless dir holds exactly the files of before, byte for
// byte, after step.
func sameDirFiles(t *testing.T, dir string, before map[string][]byte, step string) {
	t.Helper()
	now := dirFiles(t, dir)
	for name, data := range now {
		if old, ok := before[name]; !ok {
			t.Errorf("%s: %s appeared", step, name)
		} else if !bytes.Equal(old, data) {
			t.Errorf("%s: %s changed (%d bytes, was %d)", step, name, len(data), len(old))
		}
	}
	for name := range before {
		if _, ok := now[name]; !ok {
			t.Errorf("%s: %s disappeared", step, name)
		}
	}
}

// TestOpeningIsARead: every way into a local PCR dataset — core.OpenDataset,
// pcr.Open with a full scan, and a server answering /index and a record read
// — leaves every file under the dataset byte-identical and adds none.
func TestOpeningIsARead(t *testing.T) {
	dir, n := synthDir(t, pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4))
	before := dirFiles(t, dir)

	ds, err := core.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	sameDirFiles(t, dir, before, "core.OpenDataset")

	local, err := pcr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(context.Background(), local, local.Qualities())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan yielded %d samples, want %d", len(got), n)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	sameDirFiles(t, dir, before, "pcr.Open and Scan")

	srv, err := serve.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	for _, path := range []string{"/index", "/records/record-00000.pcr?group=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("GET %s: %s, %d bytes, %v", path, resp.Status, len(body), err)
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sameDirFiles(t, dir, before, "serve.New, /index and a record read")
}

// TestUnclosedWriterIsRefused: a writer that flushed two records and died
// before Close leaves no dataset metadata. Opening the directory is refused
// with an error that says so, and the refusal changes no file.
func TestUnclosedWriterIsRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := pcr.Create(dir, pcr.WithImagesPerRecord(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range carImages(t, 4) {
		if err := w.Append(pcr.Sample{ID: int64(i), Image: img}); err != nil {
			t.Fatal(err)
		}
	}
	if recs, _ := filepath.Glob(filepath.Join(dir, "record-*.pcr")); len(recs) != 2 {
		t.Fatalf("writer flushed %d records, want 2", len(recs))
	}
	before := dirFiles(t, dir)

	if _, err := core.OpenDataset(dir); !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "dataset metadata missing") {
		t.Errorf("core.OpenDataset = %v, want a dataset-metadata-missing fs.ErrNotExist", err)
	}
	if _, err := pcr.Open(dir); err == nil || !strings.Contains(err.Error(), "dataset metadata missing") {
		t.Errorf("pcr.Open = %v, want a dataset-metadata-missing error", err)
	}
	sameDirFiles(t, dir, before, "the refused opens")
}
