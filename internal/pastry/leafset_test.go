package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mspastry/internal/id"
)

func ref(lo uint64) NodeRef {
	return NodeRef{ID: id.New(0, lo), Addr: fmt.Sprintf("n%d", lo)}
}

func refID(x id.ID) NodeRef {
	return NodeRef{ID: x, Addr: x.String()[:12]}
}

func TestLeafSetAddOrdering(t *testing.T) {
	ls := NewLeafSet(id.New(0, 1000), 8)
	for _, v := range []uint64{1010, 990, 1020, 980, 1005, 995} {
		ls.Add(ref(v))
	}
	right := ls.Right()
	if len(right) != 4 {
		t.Fatalf("right size = %d, want 4", len(right))
	}
	// Clockwise distances from 1000: 1005->5, 1010->10, 1020->20, then the
	// smaller identifiers wrap nearly the whole ring; among them 980 has
	// the smallest clockwise distance (2^128-20).
	wantR := []uint64{1005, 1010, 1020, 980}
	for i, w := range wantR {
		if right[i].ID.Lo != w {
			t.Fatalf("right[%d] = %d, want %d (full: %v)", i, right[i].ID.Lo, w, right)
		}
	}
	left := ls.Left()
	wantL := []uint64{995, 990, 980, 1020}
	for i, w := range wantL {
		if left[i].ID.Lo != w {
			t.Fatalf("left[%d] = %d, want %d", i, left[i].ID.Lo, w)
		}
	}
}

func TestLeafSetCapacityTruncation(t *testing.T) {
	ls := NewLeafSet(id.New(0, 0), 4)
	for v := uint64(1); v <= 10; v++ {
		ls.Add(ref(v))
	}
	right := ls.Right()
	if len(right) != 2 {
		t.Fatalf("right size = %d, want 2", len(right))
	}
	if right[0].ID.Lo != 1 || right[1].ID.Lo != 2 {
		t.Fatalf("right = %v, want 1,2", right)
	}
}

func TestLeafSetAddSelfAndDup(t *testing.T) {
	self := id.New(0, 5)
	ls := NewLeafSet(self, 4)
	if ls.Add(NodeRef{ID: self, Addr: "x"}) {
		t.Fatal("adding self should not change the set")
	}
	if !ls.Add(ref(6)) {
		t.Fatal("first add should change")
	}
	if ls.Add(ref(6)) {
		t.Fatal("duplicate add should not change")
	}
}

func TestLeafSetRemove(t *testing.T) {
	ls := NewLeafSet(id.New(0, 100), 4)
	ls.Add(ref(101))
	ls.Add(ref(99))
	if !ls.Remove(id.New(0, 101)) {
		t.Fatal("remove existing failed")
	}
	if ls.Contains(id.New(0, 101)) {
		t.Fatal("removed node still present")
	}
	if ls.Remove(id.New(0, 101)) {
		t.Fatal("double remove reported true")
	}
}

func TestLeafSetWrappedSmallRing(t *testing.T) {
	// 5 nodes, l=8: everyone knows everyone; the set must wrap and report
	// complete even though sides are not full.
	ls := NewLeafSet(id.New(0, 0), 8)
	for _, v := range []uint64{100, 200, 300, 400} {
		ls.Add(ref(v))
	}
	if !ls.Wrapped() {
		t.Fatal("small ring should wrap")
	}
	if !ls.Complete() {
		t.Fatal("wrapped set should be complete")
	}
}

func TestLeafSetIncompleteAfterMemberFailure(t *testing.T) {
	// Full leaf set on a large ring; removing a left member must make the
	// set incomplete (triggering eager repair) rather than wrapping.
	self := id.New(1<<60, 0)
	ls := NewLeafSet(self, 4)
	ls.Add(refID(self.Add(id.New(0, 1))))
	ls.Add(refID(self.Add(id.New(0, 2))))
	ls.Add(refID(self.Sub(id.New(0, 1))))
	ls.Add(refID(self.Sub(id.New(0, 2))))
	if !ls.Complete() {
		t.Fatal("both sides full should be complete")
	}
	ls.Remove(self.Sub(id.New(0, 1)))
	if ls.Wrapped() {
		t.Fatal("post-failure set must not count as wrapped")
	}
	if ls.Complete() {
		t.Fatal("set with a short left side must be incomplete")
	}
}

func TestLeafSetEmpty(t *testing.T) {
	ls := NewLeafSet(id.New(0, 1), 8)
	if !ls.Empty() {
		t.Fatal("fresh set should be empty")
	}
	if _, ok := ls.LeftNeighbour(); ok {
		t.Fatal("empty set has no left neighbour")
	}
	if _, ok := ls.Rightmost(); ok {
		t.Fatal("empty set has no rightmost")
	}
}

// TestLeafSetClosest checks the leaf-set next-hop choice: the member
// closest to the key, the local node when it is closest, and the next
// best when the closest member is routed around.
func TestLeafSetClosest(t *testing.T) {
	n := newTestNode(t, id.New(0, 1000))
	for _, v := range []uint64{900, 950, 1050, 1100} {
		n.ls.Add(ref(v))
	}
	got, other := n.closestLeaf(id.New(0, 1060), nil)
	if !other || got.ID.Lo != 1050 {
		t.Fatalf("closest to 1060 = %v (other=%v), want 1050", got, other)
	}
	// Key closest to self.
	got, other = n.closestLeaf(id.New(0, 1001), nil)
	if other {
		t.Fatalf("closest to 1001 should be self, got %v", got)
	}
	// Exclusion forces the next best.
	n.excluded[id.New(0, 1050)] = true
	got, other = n.closestLeaf(id.New(0, 1060), nil)
	if !other || got.ID.Lo != 1100 {
		t.Fatalf("excluded closest = %v, want 1100", got)
	}
}

func TestLeafSetInRange(t *testing.T) {
	ls := NewLeafSet(id.New(0, 1000), 4)
	for _, v := range []uint64{900, 950, 1050, 1100} {
		ls.Add(ref(v))
	}
	for _, c := range []struct {
		k    uint64
		want bool
	}{
		{1000, true}, {900, true}, {1100, true}, {950, true},
		{899, false}, {1101, false}, {5000, false},
	} {
		if got := ls.InRange(id.New(0, c.k)); got != c.want {
			t.Errorf("InRange(%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestLeafSetInRangeWrappedAlwaysTrue(t *testing.T) {
	ls := NewLeafSet(id.New(0, 0), 8)
	ls.Add(ref(1))
	ls.Add(ref(2))
	if !ls.InRange(id.New(1<<50, 12345)) {
		t.Fatal("wrapped leaf set covers whole ring")
	}
}

func TestLeafSetMembersUnique(t *testing.T) {
	ls := NewLeafSet(id.New(0, 0), 8)
	for _, v := range []uint64{10, 20, 30} {
		ls.Add(ref(v)) // small ring: members appear on both sides
	}
	m := ls.Members()
	if len(m) != 3 {
		t.Fatalf("members = %d, want 3 unique", len(m))
	}
}

func TestLeafSetSpanFraction(t *testing.T) {
	self := id.New(1<<62, 0)
	ls := NewLeafSet(self, 4)
	// Four members at +/-2^119 and +/-2^120: span = 2^121 of 2^128.
	a := id.New(1<<55, 0)
	for _, m := range []id.ID{self.Add(a), self.Add(a.Add(a)), self.Sub(a), self.Sub(a.Add(a))} {
		ls.Add(refID(m))
	}
	if ls.Wrapped() {
		t.Fatal("test setup should not wrap")
	}
	got := ls.SpanFraction()
	want := 1.0 / 128
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("span fraction = %v, want ~%v", got, want)
	}
}

func TestLeafSetSpanFractionWrapped(t *testing.T) {
	ls := NewLeafSet(id.New(0, 0), 8)
	ls.Add(ref(100))
	ls.Add(ref(200))
	if got := ls.SpanFraction(); got != 1 {
		t.Fatalf("wrapped span fraction = %v, want 1", got)
	}
}

func TestLeafSetAddOnlyMatchesClosestK(t *testing.T) {
	// Property: with insertions only, each side holds exactly the l/2
	// closest inserted nodes on that side, sorted.
	rng := rand.New(rand.NewSource(77))
	self := id.Random(rng)
	const l = 8
	ls := NewLeafSet(self, l)
	live := map[id.ID]NodeRef{}
	for step := 0; step < 500; step++ {
		r := refID(id.Random(rng))
		live[r.ID] = r
		ls.Add(r)
		checkSideExact(t, self, live, ls.Right(), l/2, false)
		checkSideExact(t, self, live, ls.Left(), l/2, true)
	}
}

func TestLeafSetRemovalKeepsInvariants(t *testing.T) {
	// After removals, a side may be smaller than the closest-k of all
	// nodes ever seen (dropped candidates are not remembered — repair
	// refills via probing), but must stay sorted, bounded, and must never
	// contain a removed node.
	rng := rand.New(rand.NewSource(78))
	self := id.Random(rng)
	const l = 8
	ls := NewLeafSet(self, l)
	removed := map[id.ID]bool{}
	var inserted []NodeRef
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 || len(inserted) == 0 {
			r := refID(id.Random(rng))
			inserted = append(inserted, r)
			delete(removed, r.ID)
			ls.Add(r)
		} else {
			victim := inserted[rng.Intn(len(inserted))]
			removed[victim.ID] = true
			ls.Remove(victim.ID)
		}
		for _, side := range [][]NodeRef{ls.Left(), ls.Right()} {
			if len(side) > l/2 {
				t.Fatalf("side overflow: %d", len(side))
			}
			for _, m := range side {
				if removed[m.ID] {
					t.Fatalf("removed node %v still in side", m.ID)
				}
			}
		}
		checkSorted(t, self, ls.Right(), false)
		checkSorted(t, self, ls.Left(), true)
	}
}

func sideDist(self id.ID, leftSide bool) func(id.ID) id.ID {
	return func(x id.ID) id.ID {
		if leftSide {
			return x.Clockwise(self)
		}
		return self.Clockwise(x)
	}
}

func checkSorted(t *testing.T, self id.ID, side []NodeRef, leftSide bool) {
	t.Helper()
	dist := sideDist(self, leftSide)
	for i := 1; i < len(side); i++ {
		if dist(side[i-1].ID).Cmp(dist(side[i].ID)) >= 0 {
			t.Fatalf("side not strictly sorted at %d", i)
		}
	}
}

func checkSideExact(t *testing.T, self id.ID, live map[id.ID]NodeRef, side []NodeRef, half int, leftSide bool) {
	t.Helper()
	checkSorted(t, self, side, leftSide)
	dist := sideDist(self, leftSide)
	var all []id.ID
	for k := range live {
		all = append(all, k)
	}
	sort.Slice(all, func(i, j int) bool { return dist(all[i]).Cmp(dist(all[j])) < 0 })
	want := half
	if len(all) < want {
		want = len(all)
	}
	if len(side) != want {
		t.Fatalf("side size = %d, want %d", len(side), want)
	}
	for i := 0; i < want; i++ {
		if side[i].ID != all[i] {
			t.Fatalf("side[%d] = %v, want %v", i, side[i].ID, all[i])
		}
	}
}
