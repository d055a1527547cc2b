package cluster

import (
	"fmt"
	"testing"
)

func TestRingOwnerDeterministic(t *testing.T) {
	a := NewRing([]string{"a", "b", "c"}, 0)
	b := NewRing([]string{"c", "a", "b"}, 0) // order must not matter
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("compact/%04d", i)
		oa := a.Owners(key, 1)
		if len(oa) != 1 {
			t.Fatal("owner lookup failed on non-empty ring")
		}
		ob := b.Owners(key, 1)
		if oa[0] != ob[0] {
			t.Fatalf("key %s: owner depends on insertion order: %s vs %s", key, oa, ob)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if o := NewRing(nil, 0).Owners("k", 1); len(o) != 0 {
		t.Fatal("empty ring claimed an owner")
	}
	r := NewRing([]string{"solo"}, 0)
	if o := r.Owners("anything", 1); len(o) != 1 || o[0] != "solo" {
		t.Fatalf("single-node ring: got %q", o)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRingDuplicatesCollapse(t *testing.T) {
	r := NewRing([]string{"a", "a", "b", ""}, 8)
	if r.Len() != 2 {
		t.Fatalf("want 2 distinct nodes, got %d (%v)", r.Len(), r.Nodes())
	}
}

// TestRingDistribution checks virtual nodes spread keys roughly evenly: no
// node of a 3-node ring should own less than half or more than double its
// fair share over a large key set.
func TestRingDistribution(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 0)
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Owners(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	fair := n / 3
	for node, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("node %s owns %d of %d keys (fair share %d): distribution too skewed", node, c, n, fair)
		}
	}
}

// TestRingMinimalDisruption checks the consistent-hashing property: removing
// one node of three must move (roughly) only that node's keys — keys owned
// by the survivors keep their owner.
func TestRingMinimalDisruption(t *testing.T) {
	full := NewRing([]string{"a", "b", "c"}, 0)
	small := NewRing([]string{"a", "b"}, 0)
	moved := 0
	const n = 10000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		before, after := full.Owners(key, 1)[0], small.Owners(key, 1)[0]
		if before == "c" {
			continue // c's keys must move somewhere
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving nodes changed owner when c left", moved)
	}
}
