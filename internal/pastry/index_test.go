package pastry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
)

// The reference implementations below are the rescans the routing-state
// index replaced. They stay here as oracles only.

// inRoutingState is the old membership test: the peer is in the leaf
// set or the routing table.
func (n *Node) inRoutingState(x id.ID) bool {
	return n.ls.Contains(x) || n.rt.Contains(x)
}

// refScanOrder is the old scan target list: table entries row-major,
// then leaf members not in the table.
func refScanOrder(n *Node) []NodeRef {
	targets := n.rt.Entries()
	for _, m := range n.ls.Members() {
		if !n.rt.Contains(m.ID) {
			targets = append(targets, m)
		}
	}
	return targets
}

// refAddrCounts counts the leaf-set and table entries per address; the
// old monitoredNodes was the number of its keys.
func refAddrCounts(n *Node) map[string]int {
	counts := make(map[string]int)
	for _, e := range n.rt.Entries() {
		counts[e.Addr]++
	}
	for _, e := range n.ls.Members() {
		counts[e.Addr]++
	}
	return counts
}

// refNearestKnown is the old map-plus-selection-sort nearestKnown.
func refNearestKnown(n *Node, target id.ID, k int) []NodeRef {
	seen := map[id.ID]bool{n.self.ID: true, target: true}
	var all []NodeRef
	for _, e := range n.rt.Entries() {
		if !seen[e.ID] {
			seen[e.ID] = true
			all = append(all, e)
		}
	}
	for _, e := range n.ls.Members() {
		if !seen[e.ID] {
			seen[e.ID] = true
			all = append(all, e)
		}
	}
	if k > len(all) {
		k = len(all)
	}
	for i := 0; i < k; i++ {
		minIdx := i
		for j := i + 1; j < len(all); j++ {
			if id.CloserToKey(target, all[j].ID, all[minIdx].ID) {
				minIdx = j
			}
		}
		all[i], all[minIdx] = all[minIdx], all[i]
	}
	return all[:k]
}

// checkIndex asserts the index agrees with the reference rescans.
func checkIndex(t *testing.T, n *Node, universe []NodeRef, target id.ID, step int) {
	t.Helper()
	for _, ref := range universe {
		inLeaf, inTable := n.ls.Contains(ref.ID), n.rt.Contains(ref.ID)
		rec := n.peers.Lookup(ref.ID)
		if rec == nil {
			if inLeaf || inTable {
				t.Fatalf("step %d: member %v has no record", step, ref.ID)
			}
			continue
		}
		if rec.Has(peer.InLeafSet) != inLeaf || rec.Has(peer.InTable) != inTable ||
			rec.InRoutingState() != n.inRoutingState(ref.ID) {
			t.Fatalf("step %d: %v bits leaf=%v table=%v, structures leaf=%v table=%v",
				step, ref.ID, rec.Has(peer.InLeafSet), rec.Has(peer.InTable), inLeaf, inTable)
		}
	}
	want := refAddrCounts(n)
	if len(n.idx.addrRefs) != len(want) || n.monitoredNodes() != len(want) {
		t.Fatalf("step %d: monitored %d (refs %v), want %d (%v)", step, n.monitoredNodes(), n.idx.addrRefs, len(want), want)
	}
	for addr, c := range want {
		if n.idx.addrRefs[addr] != c {
			t.Fatalf("step %d: addr %q refcount %d, want %d", step, addr, n.idx.addrRefs[addr], c)
		}
	}
	var order []NodeRef
	n.eachInRoutingState(func(ref NodeRef, rec *peer.Record) {
		if rec == nil || rec.ID != ref.ID {
			t.Fatalf("step %d: %v visited with record %v", step, ref.ID, rec)
		}
		order = append(order, ref)
	})
	if ref := refScanOrder(n); !slices.Equal(order, ref) {
		t.Fatalf("step %d: visit order\n%v\nwant\n%v", step, order, ref)
	}
	k := n.cfg.L + 1
	if got, ref := n.nearestKnown(target, k), refNearestKnown(n, target, k); !slices.Equal(got, ref) {
		t.Fatalf("step %d: nearestKnown\n%v\nwant\n%v", step, got, ref)
	}
}

// TestRoutingIndexEquivalence applies seeded random sequences of
// leaf-set and routing-table mutations — including leaf overflow,
// slot displacement by AddWithRTT and markFaulty — and checks after
// every step that membership bits, the address refcount, the visit
// order and nearestKnown all match the rescans they replaced.
// Identifiers share a small address pool (address reuse by fresh
// identifiers, as under churn), and some are re-added under a second
// address.
func TestRoutingIndexEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := newTestNet(t, seed)
		self := id.Random(rng)
		n := net.addNode(self, testConfig(), nil)
		addrs := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}
		var universe []NodeRef
		for i := 0; i < 120; i++ {
			var x id.ID
			switch i % 3 {
			case 0: // near self: leaf-set candidates
				x = self.Add(id.New(0, rng.Uint64()>>20))
				if rng.Intn(2) == 0 {
					x = self.Sub(id.New(0, rng.Uint64()>>20))
				}
			case 1: // shares a prefix with self: deeper table rows
				x = id.Random(rng)
				shift := uint(64 - 4*(1+rng.Intn(3)))
				x.Hi = self.Hi>>shift<<shift | x.Hi&(1<<shift-1)
			default:
				x = id.Random(rng)
			}
			universe = append(universe, NodeRef{ID: x, Addr: addrs[rng.Intn(len(addrs))]})
		}
		pick := func() NodeRef {
			ref := universe[rng.Intn(len(universe))]
			if rng.Intn(8) == 0 {
				ref.Addr = "alt-" + ref.Addr
			}
			return ref
		}
		for step := 0; step < 600; step++ {
			ref := pick()
			switch op := rng.Intn(10); {
			case op < 3:
				n.ls.Add(ref)
			case op < 4:
				n.ls.Remove(ref.ID)
			case op < 6:
				n.rt.Add(ref)
			case op < 8:
				n.rt.AddWithRTT(ref, time.Duration(rng.Intn(200))*time.Millisecond)
			case op < 9:
				n.rt.Remove(ref.ID)
			default:
				n.markFaulty(ref, false)
			}
			if step%50 == 49 {
				// Registry sweeps must never evict a member's record.
				net.run(10 * time.Minute)
				n.sweepPeers()
			}
			target := universe[rng.Intn(len(universe))].ID
			if rng.Intn(2) == 0 {
				target = id.Random(rng)
			}
			checkIndex(t, n, universe, target, step)
		}
	}
}

// TestScanProbeOrderPinned fixes the leaf set and routing table and
// staggers each peer's probing clock, then checks the exact sequence of
// routing-table probes and the suppression count one tick produces:
// table entries in row-major order, then leaf members not in the table
// in Members() order.
func TestScanProbeOrderPinned(t *testing.T) {
	net := newTestNet(t, 1)
	cfg := testConfig()
	cfg.SelfTune = false
	cfg.FixedTrt = time.Minute
	self := id.New(0x8000_0000_0000_0000, 0)
	n := net.addNode(self, cfg, nil)
	n.active = true
	net.run(time.Hour)
	now := net.sim.Now()

	ref := func(x id.ID, addr string) NodeRef { return NodeRef{ID: x, Addr: addr} }
	a := ref(id.New(0x1000_0000_0000_0000, 0), "A") // row 0, col 1
	b := ref(id.New(0x3000_0000_0000_0000, 0), "B") // row 0, col 3
	c := ref(id.New(0xA000_0000_0000_0000, 0), "C") // row 0, col 10
	d := ref(id.New(0x8100_0000_0000_0000, 0), "D") // row 1, col 1
	e := ref(id.New(0x8C00_0000_0000_0000, 0), "E") // row 1, col 12
	l1 := ref(self.Add(id.New(0, 1)), "L1")         // right neighbour
	l2 := ref(self.Sub(id.New(0, 1)), "L2")         // left neighbour
	l3 := ref(self.Add(id.New(0, 2)), "L3")
	l4 := ref(self.Sub(id.New(0, 2)), "L4")
	// Insert out of visit order: the scan must not depend on it.
	for _, r := range []NodeRef{e, c, a, d, b} {
		n.rt.Add(r)
	}
	for _, r := range []NodeRef{l3, l1, a, l4, l2} {
		n.ls.Add(r)
	}

	const (
		due        = iota // probing clock expired, silent: probed
		suppressed        // probing clock expired, heard recently
		notDue            // probed recently
		firstSight        // never seen: clock starts, no probe
	)
	state := map[NodeRef]int{
		a: due, b: suppressed, c: due, d: notDue, e: due,
		l1: firstSight, l2: due, l3: due, l4: suppressed,
	}
	for r, st := range state {
		rec := n.peers.Lookup(r.ID)
		switch st {
		case due:
			rec.LastLiveness, rec.LastRecv = now-2*time.Minute, now-5*time.Minute
		case suppressed:
			rec.LastLiveness, rec.LastRecv = now-2*time.Minute, now-10*time.Second
		case notDue:
			rec.LastLiveness, rec.LastRecv = now-10*time.Second, now-5*time.Minute
		}
	}
	// No heartbeat due to the left neighbour; the right neighbour is
	// fresh, so the tick suspects no one.
	n.peers.Lookup(l2.ID).LastHeartbeat = now
	n.peers.Lookup(l1.ID).LastRecv = now

	var probed []NodeRef
	net.drop = func(_, to NodeRef, m Message) bool {
		if _, ok := m.(*RTProbe); ok {
			probed = append(probed, to)
		}
		return true
	}
	before := n.Stats().SuppressedProbes
	n.onTick()
	if want := []NodeRef{a, c, e, l2, l3}; !slices.Equal(probed, want) {
		t.Fatalf("probe order %v, want %v", probed, want)
	}
	if got := n.Stats().SuppressedProbes - before; got != 2 {
		t.Fatalf("suppressed %d probes, want 2 (B and L4)", got)
	}
}

// TestNodeTickAllocs guards the allocation-free maintenance tick: on a
// populated node, a tick that sends no probe allocates nothing.
func TestNodeTickAllocs(t *testing.T) {
	n := tickNode(t)
	if allocs := testing.AllocsPerRun(50, n.onTick); allocs != 0 {
		t.Fatalf("tick allocated %v times, want 0", allocs)
	}
}

// TestLeafIndexWrappedRing applies seeded random leaf-set mutations on a
// ring smaller than the leaf set, so the two sides overlap and an
// identifier often sits on both, and checks the index after every step.
// Identifiers are re-added under a second address, so one can sit on
// the two sides under different addresses and Members() switch between
// them when a side drops it; overflow drops an identifier from one side
// only.
func TestLeafIndexWrappedRing(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := newTestNet(t, seed)
		self := id.Random(rng)
		n := net.addNode(self, testConfig(), nil)
		var universe []NodeRef
		for i := 0; i < 4+int(seed); i++ {
			universe = append(universe, NodeRef{ID: id.Random(rng), Addr: fmt.Sprintf("w%d", i)})
		}
		for step := 0; step < 800; step++ {
			ref := universe[rng.Intn(len(universe))]
			if rng.Intn(3) == 0 {
				ref.Addr += "-alt"
			}
			switch op := rng.Intn(10); {
			case op < 6:
				n.ls.Add(ref)
			case op < 8:
				n.ls.Remove(ref.ID)
			case op < 9:
				n.rt.Add(ref)
			default:
				n.markFaulty(ref, false)
			}
			checkIndex(t, n, universe, universe[rng.Intn(len(universe))].ID, step)
		}
	}
}
