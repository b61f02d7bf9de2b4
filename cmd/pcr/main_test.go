package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/pcr"
)

// TestInspectRemoteMatchesLocal: inspect accepts a pcrserved URL and prices
// a filter from the served index alone — the per-quality PlanFilter lines
// (and everything else it prints but the dataset's name) equal the local
// run's, and the server sends no record byte.
func TestInspectRemoteMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	if _, err := pcr.Synthesize(dir, "cars", 0.1, 3,
		pcr.WithImagesPerRecord(8), pcr.WithScanGroups(4)); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	inspect := func(dataset string) (lines, filterLines []string) {
		t.Helper()
		var out bytes.Buffer
		if err := cmdInspect(&out, []string{"-dataset", dataset, "-filter", "label IN (0, 1, 2)"}); err != nil {
			t.Fatalf("inspect %s: %v", dataset, err)
		}
		lines = strings.Split(out.String(), "\n")
		inFilter := false
		for _, l := range lines {
			switch {
			case strings.HasPrefix(l, "filter: "):
				inFilter = true
			case inFilter && strings.HasPrefix(l, "  quality "):
				filterLines = append(filterLines, l)
			default:
				inFilter = false
			}
		}
		return lines, filterLines
	}
	local, localFilter := inspect(dir)
	remote, remoteFilter := inspect(ts.URL)

	if len(localFilter) != 4 {
		t.Fatalf("local run printed %d PlanFilter lines, want one per quality (4):\n%s",
			len(localFilter), strings.Join(local, "\n"))
	}
	if strings.Join(remoteFilter, "\n") != strings.Join(localFilter, "\n") {
		t.Fatalf("remote PlanFilter lines differ from local:\nremote:\n%s\nlocal:\n%s",
			strings.Join(remoteFilter, "\n"), strings.Join(localFilter, "\n"))
	}
	// The first line names the dataset (directory vs URL); the rest is
	// priced from the same index.
	if strings.Join(remote[1:], "\n") != strings.Join(local[1:], "\n") {
		t.Fatalf("remote inspect differs from local:\nremote:\n%s\nlocal:\n%s",
			strings.Join(remote, "\n"), strings.Join(local, "\n"))
	}
	if st := srv.Stats(); st.BytesServed != 0 {
		t.Fatalf("inspect read %d record bytes from the server, want 0 (index only)", st.BytesServed)
	}
}
