package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingDeterminism: the ring is a pure function of the member set —
// input order must not matter, and rebuilding must reproduce every
// key's full failover sequence.
func TestRingDeterminism(t *testing.T) {
	a := newRing([]string{"http://w1", "http://w2", "http://w3"})
	b := newRing([]string{"http://w3", "http://w1", "http://w2"})
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		sa, sb := a.sequence(key, 0), b.sequence(key, 0)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("key %q: sequence differs across member orderings: %v vs %v", key, sa, sb)
		}
		if len(sa) != 3 {
			t.Fatalf("key %q: sequence %v does not cover all members", key, sa)
		}
		seen := map[string]bool{}
		for _, m := range sa {
			if seen[m] {
				t.Fatalf("key %q: member %q repeated in sequence %v", key, m, sa)
			}
			seen[m] = true
		}
	}
}

// TestRingDistribution: virtual nodes should split keys roughly evenly
// — with 3 workers nobody should fall outside [15%, 55%].
func TestRingDistribution(t *testing.T) {
	r := newRing([]string{"http://w1", "http://w2", "http://w3"})
	const n = 10_000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[r.owner(fmt.Sprintf("key-%d", i))]++
	}
	for m, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("member %s owns %.1f%% of keys (counts %v)", m, 100*frac, counts)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d members own keys: %v", len(counts), counts)
	}
}

// TestRingStability: removing one member must only reassign the keys it
// owned; every other key keeps its owner (this is what makes failover
// cheap and a recovered worker reclaim its cached keys).
func TestRingStability(t *testing.T) {
	full := newRing([]string{"http://w1", "http://w2", "http://w3"})
	without2 := newRing([]string{"http://w1", "http://w3"})
	const n = 5_000
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.owner(key)
		after := without2.owner(key)
		if before == "http://w2" {
			// Reassigned keys must land on the next worker in the full
			// ring's failover sequence — that is where the coordinator
			// already sent them while w2 was down.
			if want := full.sequence(key, 2)[1]; after != want {
				t.Fatalf("key %q: reassigned to %s, want failover target %s", key, after, want)
			}
			moved++
			continue
		}
		if after != before {
			t.Fatalf("key %q moved %s -> %s though its owner never left", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the removed member — distribution test should have caught this")
	}
}
