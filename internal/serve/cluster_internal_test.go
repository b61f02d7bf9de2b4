package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestParseClusterInfoBounds: a /cluster document is refused past 1 MiB or
// 1 024 members, before any ring is built from it; one at the member bound
// makes a fleet.
func TestParseClusterInfoBounds(t *testing.T) {
	doc := func(members int) []byte {
		info := cluster.Info{Replication: 2}
		for i := 0; i < members; i++ {
			info.Members = append(info.Members, fmt.Sprintf("http://10.0.%d.%d:8100", i/256, i%256))
		}
		data, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	info, err := parseClusterInfo(doc(maxClusterMembers))
	if err != nil {
		t.Fatalf("%d members: %v", maxClusterMembers, err)
	}
	if _, err := newFleet(info, http.DefaultClient); err != nil {
		t.Fatalf("%d members: newFleet: %v", maxClusterMembers, err)
	}
	if _, err := parseClusterInfo(doc(maxClusterMembers + 1)); err == nil {
		t.Errorf("%d members accepted", maxClusterMembers+1)
	}
	big := `{"members":["http://a"],"self":"` + strings.Repeat("x", maxClusterDocBytes) + `"}`
	if _, err := parseClusterInfo([]byte(big)); err == nil {
		t.Errorf("%d-byte document accepted", len(big))
	}
}

// FuzzClusterInfo feeds arbitrary bytes to the /cluster parser. The oracle:
// nothing panics; a document is refused, or newFleet refuses it, or it
// makes a fleet of at most maxClusterMembers distinct members, each listed
// in the document, with a replication factor of at least 1.
func FuzzClusterInfo(f *testing.F) {
	f.Add([]byte(`{"members":["http://127.0.0.1:8100","http://127.0.0.1:8101"],"replication":2,"self":"http://127.0.0.1:8100","epoch":"e"}`))
	f.Add([]byte(`{"members":["http://a","http://a","https://b/"],"replication":0}`))
	f.Add([]byte(`{"members":[],"replication":1}`))
	f.Add([]byte(`{"members":[""]}`))
	f.Add([]byte(`{"members":["ftp://a"]}`))
	f.Add([]byte(`{"members":["http://a"]} trailing`))
	f.Add([]byte(`{"members":"http://a","replication":-5}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := parseClusterInfo(data)
		if err != nil {
			return
		}
		if info.Replication < 1 || len(info.Members) == 0 || len(info.Members) > maxClusterMembers {
			t.Fatalf("accepted %d members, replication %d", len(info.Members), info.Replication)
		}
		fl, err := newFleet(info, http.DefaultClient)
		if err != nil {
			return
		}
		listed := map[string]bool{}
		for _, u := range info.Members {
			listed[u] = true
		}
		if len(fl.members) != len(listed) {
			t.Fatalf("fleet of %d members from %d distinct URLs", len(fl.members), len(listed))
		}
		for _, u := range fl.ring.Replicas("record-00000.pcr", info.Replication) {
			if fl.members[u] == nil {
				t.Fatalf("ring places a record on %q, which is not a fleet member", u)
			}
		}
	})
}
