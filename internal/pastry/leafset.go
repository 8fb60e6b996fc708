package pastry

import (
	"mspastry/internal/id"
)

// LeafSet holds the l/2 closest nodes on each side of the local node in
// identifier space. The two sides are maintained independently; in overlays
// with fewer than l nodes the sides overlap (the set "wraps" around the
// ring), which is how a node detects that it knows the entire ring.
//
// Leaf sets are the basis of MSPastry's consistency guarantee, so callers
// must respect the insertion discipline from the paper: a node is only
// added after a message was received directly from it (or during join
// initialisation, before the local node is active).
type LeafSet struct {
	self id.ID
	half int
	// left is sorted by counter-clockwise distance from self (closest
	// first); right is sorted by clockwise distance (closest first).
	left, right []NodeRef
	// members caches the deduplicated union of both sides. Routing
	// fallback, delivery guards, probing and the dht sweeps all enumerate
	// the membership far more often than it changes, so the union is
	// rebuilt lazily after a mutation instead of on every read. nil means
	// stale; rebuilds always allocate a fresh slice so previously returned
	// snapshots stay immutable.
	members []NodeRef
	// idx, when set, is told about every membership change (see
	// routingIndex); standalone leaf sets leave it nil.
	idx *routingIndex
}

// NewLeafSet creates an empty leaf set for a node with the given id and
// total size l (l/2 per side).
func NewLeafSet(self id.ID, l int) *LeafSet {
	return &LeafSet{self: self, half: l / 2}
}

// Half returns the per-side capacity l/2.
func (ls *LeafSet) Half() int { return ls.half }

// Add inserts a node into whichever sides it belongs to and reports whether
// the leaf set changed. Adding self is a no-op.
func (ls *LeafSet) Add(ref NodeRef) bool {
	if ref.ID == ls.self || ref.IsZero() {
		return false
	}
	old := ls.indexed()
	inR, outR := ls.insert(&ls.right, ref, false)
	inL, outL := ls.insert(&ls.left, ref, true)
	if !inR && !inL {
		return false
	}
	// The index needs the identifiers whose side membership changed: the
	// inserted ref and any farthest member an overflowing side pushed out.
	var buf [3]id.ID
	touched := append(buf[:0], ref.ID)
	if !outR.IsZero() {
		touched = append(touched, outR.ID)
	}
	if !outL.IsZero() {
		touched = append(touched, outL.ID)
	}
	ls.reindex(old, touched)
	return true
}

// offset is x's distance from self in a side's direction: clockwise for
// the right side, counter-clockwise for the left. Each side is sorted by
// it, closest first.
func (ls *LeafSet) offset(x id.ID, left bool) id.ID {
	if left {
		return x.Clockwise(ls.self)
	}
	return ls.self.Clockwise(x)
}

// search returns where x belongs in a side and whether it is there. A
// binary search by offset: distinct identifiers have distinct offsets,
// so x, if present, sits at the first entry not closer than it.
func (ls *LeafSet) search(side []NodeRef, x id.ID, left bool) (int, bool) {
	d := ls.offset(x, left)
	lo, hi := 0, len(side)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls.offset(side[mid].ID, left).Cmp(d) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(side) && side[lo].ID == x
}

// insert adds ref to a side, capped at l/2 entries. It reports whether
// ref was inserted and which entry, if any, the cap pushed off the far
// end.
func (ls *LeafSet) insert(side *[]NodeRef, ref NodeRef, left bool) (inserted bool, dropped NodeRef) {
	s := *side
	pos, found := ls.search(s, ref.ID, left)
	if found || pos >= ls.half {
		return false, NodeRef{}
	}
	s = append(s, NodeRef{})
	copy(s[pos+1:], s[pos:])
	s[pos] = ref
	if len(s) > ls.half {
		dropped = s[ls.half]
		s = s[:ls.half]
	}
	*side = s
	return true, dropped
}

// Remove deletes a node from both sides and reports whether it was present.
func (ls *LeafSet) Remove(x id.ID) bool {
	old := ls.indexed()
	removed := ls.remove(&ls.left, x, true)
	if ls.remove(&ls.right, x, false) {
		removed = true
	}
	if removed {
		ls.reindex(old, []id.ID{x})
	}
	return removed
}

// indexed returns the membership snapshot a mutation is applied against:
// the current Members() when an index is attached, nil otherwise.
func (ls *LeafSet) indexed() []NodeRef {
	if ls.idx == nil {
		return nil
	}
	return ls.Members()
}

// reindex invalidates the member cache after a mutation and reports it to
// the index: old is Members() before the mutation, touched the
// identifiers whose side membership it changed.
func (ls *LeafSet) reindex(old []NodeRef, touched []id.ID) {
	ls.members = nil
	if ls.idx != nil {
		ls.idx.leafChanged(old, ls.Members(), touched)
	}
}

// remove deletes x from a side, reporting whether it was there.
func (ls *LeafSet) remove(side *[]NodeRef, x id.ID, left bool) bool {
	s := *side
	i, found := ls.search(s, x, left)
	if found {
		*side = append(s[:i], s[i+1:]...)
	}
	return found
}

// RemoveAll removes every node in refs.
func (ls *LeafSet) RemoveAll(refs []NodeRef) {
	for _, r := range refs {
		ls.Remove(r.ID)
	}
}

// Contains reports whether x is in the leaf set. A linear scan: on
// sides of l/2 entries it beats a binary search by offset.
func (ls *LeafSet) Contains(x id.ID) bool {
	for _, e := range ls.left {
		if e.ID == x {
			return true
		}
	}
	for _, e := range ls.right {
		if e.ID == x {
			return true
		}
	}
	return false
}

// Left returns the left side, closest neighbour first. The returned slice
// must not be modified.
func (ls *LeafSet) Left() []NodeRef { return ls.left }

// Right returns the right side, closest neighbour first. The returned
// slice must not be modified.
func (ls *LeafSet) Right() []NodeRef { return ls.right }

// LeftNeighbour returns the closest node on the left, if any.
func (ls *LeafSet) LeftNeighbour() (NodeRef, bool) {
	if len(ls.left) == 0 {
		return NodeRef{}, false
	}
	return ls.left[0], true
}

// RightNeighbour returns the closest node on the right, if any.
func (ls *LeafSet) RightNeighbour() (NodeRef, bool) {
	if len(ls.right) == 0 {
		return NodeRef{}, false
	}
	return ls.right[0], true
}

// Leftmost returns the farthest node on the left side, if any.
func (ls *LeafSet) Leftmost() (NodeRef, bool) {
	if len(ls.left) == 0 {
		return NodeRef{}, false
	}
	return ls.left[len(ls.left)-1], true
}

// Rightmost returns the farthest node on the right side, if any.
func (ls *LeafSet) Rightmost() (NodeRef, bool) {
	if len(ls.right) == 0 {
		return NodeRef{}, false
	}
	return ls.right[len(ls.right)-1], true
}

// Empty reports whether both sides are empty (a singleton overlay).
func (ls *LeafSet) Empty() bool { return len(ls.left) == 0 && len(ls.right) == 0 }

// Wrapped reports whether the two sides overlap, meaning the leaf set
// covers the entire ring (the overlay has at most l+1 nodes).
func (ls *LeafSet) Wrapped() bool {
	if len(ls.left) == 0 || len(ls.right) == 0 {
		return false
	}
	farLeft := ls.left[len(ls.left)-1].ID
	for _, e := range ls.right {
		if e.ID == farLeft {
			return true
		}
	}
	farRight := ls.right[len(ls.right)-1].ID
	for _, e := range ls.left {
		if e.ID == farRight {
			return true
		}
	}
	return false
}

// Complete reports whether the leaf set is complete: both sides full, or
// the set wraps around the whole ring. A node only becomes active once its
// leaf set is complete and all members acknowledged it (paper, Figure 2).
func (ls *LeafSet) Complete() bool {
	if len(ls.left) == ls.half && len(ls.right) == ls.half {
		return true
	}
	return ls.Wrapped()
}

// InRange reports whether key k falls inside the identifier arc covered by
// the leaf set (from the leftmost member clockwise to the rightmost). With
// an empty leaf set every key is in range (singleton ring).
func (ls *LeafSet) InRange(k id.ID) bool {
	if ls.Empty() || ls.Wrapped() {
		return true
	}
	lm, okL := ls.Leftmost()
	rm, okR := ls.Rightmost()
	if !okL || !okR {
		// One side empty: treat the local node as the missing bound.
		if !okL {
			return id.Between(ls.self, rm.ID, k)
		}
		return id.Between(lm.ID, ls.self, k)
	}
	return id.Between(lm.ID, rm.ID, k)
}

// admission is the leaf set's entry test, computed once for a batch of
// candidates while the set does not change (see admits).
type admission struct {
	self id.ID
	// open means a side has room, so every candidate would enter.
	open bool
	// right and left are the clockwise offsets from self of the
	// far-right and far-left members.
	right, left id.ID
}

// admission returns the current entry test.
func (ls *LeafSet) admission() admission {
	if len(ls.left) < ls.half || len(ls.right) < ls.half {
		return admission{open: true}
	}
	return admission{
		self:  ls.self,
		right: ls.self.Clockwise(ls.right[len(ls.right)-1].ID),
		left:  ls.self.Clockwise(ls.left[len(ls.left)-1].ID),
	}
}

// admits reports whether x (not self) would enter the leaf set if it
// proved alive: a side has room, or x is strictly closer than the
// farthest member on a side. With x's clockwise offset from self
// computed once, that is one comparison per side: below the far-right
// member's offset, or above the far-left member's (a smaller
// counter-clockwise distance is a larger clockwise offset).
func (a admission) admits(x id.ID) bool {
	if a.open {
		return true
	}
	off := a.self.Clockwise(x)
	return off.Cmp(a.right) < 0 || off.Cmp(a.left) > 0
}

// Members returns all distinct leaf-set members, left side first. The
// returned slice is a shared snapshot: callers must not modify it, and its
// capacity is clipped so appending to it cannot either.
func (ls *LeafSet) Members() []NodeRef {
	if ls.members == nil {
		out := make([]NodeRef, 0, len(ls.left)+len(ls.right))
		out = append(out, ls.left...)
		// Both sides are small (≤ l/2 each), so a linear dedup scan beats
		// a map allocation.
	rightSide:
		for _, e := range ls.right {
			for _, l := range ls.left {
				if l.ID == e.ID {
					continue rightSide
				}
			}
			out = append(out, e)
		}
		ls.members = out[:len(out):len(out)]
	}
	return ls.members
}

// Size returns the number of distinct members.
func (ls *LeafSet) Size() int { return len(ls.Members()) }

// SpanFraction returns the fraction of the identifier ring covered by the
// leaf set (from leftmost to rightmost through self). Used to estimate the
// overlay size N from leaf-set density. A wrapped leaf set covers the
// whole ring, so its fraction is 1 (making the density estimate equal to
// the member count, which is then the true overlay size).
func (ls *LeafSet) SpanFraction() float64 {
	lm, okL := ls.Leftmost()
	rm, okR := ls.Rightmost()
	if !okL || !okR {
		return 0
	}
	if ls.Wrapped() {
		return 1
	}
	span := lm.ID.Clockwise(rm.ID)
	return idToFloat(span) / idRingSize
}

const idRingSize = 3.402823669209385e38 // 2^128

func idToFloat(x id.ID) float64 {
	return float64(x.Hi)*18446744073709551616.0 + float64(x.Lo)
}
