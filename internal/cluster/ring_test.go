package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func memberURLs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 8100+i)
	}
	return out
}

// TestPlacementDeterministic is the acceptance property: the same member
// set — in any order, built by a client or any server — yields the same
// ring, and therefore the same owner and replica set for every record.
// It hashes a full synthetic record set through rings built from shuffled
// member lists and requires identical placement.
func TestPlacementDeterministic(t *testing.T) {
	members := memberURLs(5)
	ref, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]string, 500)
	for i := range records {
		records[i] = fmt.Sprintf("records/%06d.pcr", i)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r, err := New(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Members(), ref.Members()) {
			t.Fatalf("trial %d: member order leaked into the ring: %v vs %v", trial, r.Members(), ref.Members())
		}
		for _, rec := range records {
			if got, want := r.Owner(rec), ref.Owner(rec); got != want {
				t.Fatalf("trial %d: owner of %s differs: %s vs %s", trial, rec, got, want)
			}
			if got, want := r.Replicas(rec, 3), ref.Replicas(rec, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: replicas of %s differ: %v vs %v", trial, rec, got, want)
			}
		}
	}
}

func TestReplicasDistinctOwnerFirst(t *testing.T) {
	r, err := New(memberURLs(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("rec-%d", i)
		reps := r.Replicas(key, 3)
		if len(reps) != 3 {
			t.Fatalf("want 3 replicas, got %v", reps)
		}
		if reps[0] != r.Owner(key) {
			t.Fatalf("replica 0 %s is not the owner %s", reps[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("duplicate member in replica set %v", reps)
			}
			seen[m] = true
		}
	}
	// n past the member count clamps; n <= 0 means owner only.
	if reps := r.Replicas("x", 99); len(reps) != 4 {
		t.Fatalf("clamped replicas: want 4, got %v", reps)
	}
	if reps := r.Replicas("x", 0); len(reps) != 1 || reps[0] != r.Owner("x") {
		t.Fatalf("n=0 should yield the owner, got %v", reps)
	}
}

// TestBalance checks virtual nodes do their job: across many keys, no
// member's share strays wildly from uniform.
func TestBalance(t *testing.T) {
	members := memberURLs(4)
	r, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("records/%06d.pcr", i))]++
	}
	want := keys / len(members)
	for m, n := range counts {
		if n < want/2 || n > want*2 {
			t.Fatalf("member %s owns %d of %d keys (uniform would be %d): bad spread %v", m, n, keys, want, counts)
		}
	}
}

// TestSingleMember: the degenerate one-server "fleet" owns everything —
// the shape a cluster client synthesizes for a non-fleet server.
func TestSingleMember(t *testing.T) {
	r, err := New([]string{"http://a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owner("anything"); got != "http://a" {
		t.Fatalf("owner = %s", got)
	}
	if reps := r.Replicas("anything", 2); len(reps) != 1 {
		t.Fatalf("replicas = %v", reps)
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty member set should fail")
	}
	if _, err := New([]string{""}); err == nil {
		t.Fatal("empty member name should fail")
	}
}

func TestEpoch(t *testing.T) {
	a := Epoch([]string{"http://a", "http://b"}, 2)
	b := Epoch([]string{"http://b", "http://a"}, 2)
	if a != b {
		t.Fatalf("epoch depends on member order: %s vs %s", a, b)
	}
	if Epoch([]string{"http://a", "http://b"}, 3) == a {
		t.Fatal("epoch ignores replication")
	}
	if Epoch([]string{"http://a"}, 2) == a {
		t.Fatal("epoch ignores membership")
	}
	// The length framing keeps ["ab","c"] and ["a","bc"] distinct.
	if Epoch([]string{"ab", "c"}, 1) == Epoch([]string{"a", "bc"}, 1) {
		t.Fatal("epoch concatenation ambiguity")
	}
}

// TestMinimalMovement: removing one member from the ring must reassign
// only the keys that member owned — the consistent-hashing property that
// makes membership changes cheap.
func TestMinimalMovement(t *testing.T) {
	members := memberURLs(5)
	full, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New(members[:4])
	if err != nil {
		t.Fatal(err)
	}
	removed := members[4]
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("records/%06d.pcr", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != removed && before != after {
			t.Fatalf("key %s moved from surviving member %s to %s", key, before, after)
		}
	}
}
