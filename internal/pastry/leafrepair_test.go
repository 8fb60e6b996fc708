package pastry

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/peer"
)

// The reference implementations below are the leaf-set repair path as
// it was before candidates were filtered cheapest first and Leaves and
// Near were walked without a merged copy. They stay here as oracles
// only.

// refWouldExtendLeafSet is the old per-candidate entry test, recomputing
// both far distances for every candidate.
func refWouldExtendLeafSet(n *Node, cand NodeRef) bool {
	half := n.ls.Half()
	left, right := n.ls.Left(), n.ls.Right()
	if len(left) < half || len(right) < half {
		return true
	}
	farLeft := left[len(left)-1]
	if cand.ID.Clockwise(n.self.ID).Cmp(farLeft.ID.Clockwise(n.self.ID)) < 0 {
		return true
	}
	farRight := right[len(right)-1]
	return n.self.ID.Clockwise(cand.ID).Cmp(n.self.ID.Clockwise(farRight.ID)) < 0
}

// refProcessLeafInfo is the old processLeafInfo: self, failed, member
// and entry tests in that order on one merged candidate list.
func refProcessLeafInfo(n *Node, from NodeRef, leaves, failed []NodeRef) {
	delete(n.failed, from.ID)
	n.ls.Add(from)
	n.rt.Add(from)
	for _, f := range failed {
		if f.ID == n.self.ID {
			continue
		}
		if n.ls.Contains(f.ID) {
			n.ls.Remove(f.ID)
			n.probeLeaf(f)
		}
	}
	for _, cand := range leaves {
		if cand.ID == n.self.ID {
			continue
		}
		if _, bad := n.failed[cand.ID]; bad {
			continue
		}
		if n.ls.Contains(cand.ID) {
			continue
		}
		if refWouldExtendLeafSet(n, cand) && refMarkCandidateProbe(n, cand) {
			n.probeLeaf(cand)
		}
	}
}

// refMarkCandidateProbe is the old markCandidateProbe, which looked the
// candidate's record up itself.
func refMarkCandidateProbe(n *Node, ref NodeRef) bool {
	return n.markCandidateProbe(n.peers.Obtain(ref.ID, ref.Addr, n.env.Now()))
}

// refNoteContact is the old noteContact, membership scan before the
// entry test.
func refNoteContact(n *Node, from NodeRef, hint time.Duration) {
	if from.IsZero() || from.ID == n.self.ID {
		return
	}
	now := n.env.Now()
	rec := n.peers.Obtain(from.ID, from.Addr, now)
	rec.LastRecv = now
	if _, wasFailed := n.failed[from.ID]; wasFailed {
		delete(n.failed, from.ID)
		n.counters.FalsePositives++
	}
	n.clearSlot(from.ID, n.slotGrave)
	n.rt.Add(from)
	if n.active && !n.ls.Contains(from.ID) && refWouldExtendLeafSet(n, from) &&
		refMarkCandidateProbe(n, from) {
		n.probeLeaf(from)
	}
	if hint > 0 {
		n.setTrtHint(rec, hint)
	}
}

// refReceive is the old Receive for the two leaf-set probe messages.
func refReceive(n *Node, m Message) {
	switch p := m.(type) {
	case *LSProbe:
		refNoteContact(n, p.From, p.TrtHint)
		refProcessLeafInfo(n, p.From, p.Leaves, p.Failed)
		reply := &LSProbeReply{
			From:    n.self,
			Leaves:  n.ls.Members(),
			Failed:  n.failedList(),
			TrtHint: n.trtLocal,
		}
		if p.NeedNear {
			reply.Near = refNearestKnown(n, p.From.ID, n.cfg.L+1)
		}
		n.send(p.From, reply)
	case *LSProbeReply:
		refNoteContact(n, p.From, p.TrtHint)
		delete(n.excluded, p.From.ID)
		refProcessLeafInfo(n, p.From, append(p.Leaves, p.Near...), p.Failed)
		n.doneProbing(p.From.ID)
	}
}

// repairTwin is one side of the pinned comparison: a node on its own
// test network, with every message it sends logged and dropped.
type repairTwin struct {
	net  *testNet
	n    *Node
	sent []string
}

func newRepairTwin(t *testing.T, seed int64, self id.ID, l int) *repairTwin {
	tw := &repairTwin{net: newTestNet(t, seed)}
	cfg := testConfig()
	cfg.L = l
	tw.n = tw.net.addNode(self, cfg, nil)
	tw.n.active = true
	tw.net.run(time.Hour)
	tw.net.drop = func(_, to NodeRef, m Message) bool {
		tw.sent = append(tw.sent, fmt.Sprintf("%T to %v: %+v", m, to, m))
		return true
	}
	return tw
}

// state summarises what the comparison pins beyond the sent messages:
// leaf members, probe counters, outstanding probes and failure records.
func (tw *repairTwin) state() string {
	n := tw.n
	var probing, failed []string
	for x, ps := range n.probing {
		probing = append(probing, fmt.Sprintf("%v/%v/%d", x, ps.isLeaf, ps.retries))
	}
	for x := range n.failed {
		failed = append(failed, x.String())
	}
	sort.Strings(probing)
	sort.Strings(failed)
	return fmt.Sprintf("members %v\ncounters %+v\nprobing %v\nfailed %v\nmonitored %d",
		n.ls.Members(), n.Stats(), probing, failed, n.monitoredNodes())
}

// TestLeafInfoProbeSequencePinned feeds seeded random LS-PROBE and
// LS-PROBE-REPLY messages to a node and to a twin running the reference
// handlers, and checks after every message that both sent the same
// messages in the same order (so the same leaf probes to the same
// targets) and hold the same leaf set, counters, outstanding probes and
// failure records. Candidates include self, failed identifiers, members
// (the far member on each side among them), non-members inside and far
// outside the leaf-set span, and identifiers in both Leaves and Near;
// members are removed and marked faulty between messages, so sides run
// short and refill.
func TestLeafInfoProbeSequencePinned(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := []int{4, 8, 16}[seed%3]
		self := id.Random(rng)
		selfRef := NodeRef{ID: self, Addr: "t0"}
		a := newRepairTwin(t, seed, self, l)
		b := newRepairTwin(t, seed, self, l)

		var universe []NodeRef
		for i := 0; i < 12*l; i++ {
			var x id.ID
			switch i % 4 {
			case 0, 1: // near self on either side: leaf candidates
				x = self.Add(id.New(rng.Uint64()>>56, rng.Uint64()))
				if i%4 == 1 {
					x = self.Sub(id.New(rng.Uint64()>>56, rng.Uint64()))
				}
			case 2: // just outside a full side, mostly
				x = self.Add(id.New(1<<10+rng.Uint64()>>50, rng.Uint64()))
				if rng.Intn(2) == 0 {
					x = self.Sub(id.New(1<<10+rng.Uint64()>>50, rng.Uint64()))
				}
			default:
				x = id.Random(rng)
			}
			universe = append(universe, NodeRef{ID: x, Addr: fmt.Sprintf("u%d", i)})
		}
		both := func(f func(n *Node)) {
			f(a.n)
			f(b.n)
		}
		for _, r := range universe[:l+l/2] {
			both(func(n *Node) { n.ls.Add(r) })
		}
		// pick draws a candidate: a current member (often a far one),
		// self, a failed identifier or any universe identifier.
		pick := func() NodeRef {
			members := a.n.ls.Members()
			switch k := rng.Intn(10); {
			case k == 0:
				return selfRef
			case k == 1 && len(a.n.failed) > 0:
				var ids []NodeRef
				for _, f := range a.n.failed {
					ids = append(ids, f)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i].ID.Less(ids[j].ID) })
				return ids[rng.Intn(len(ids))]
			case k == 2:
				if lm, ok := a.n.ls.Leftmost(); ok {
					return lm
				}
			case k == 3:
				if rm, ok := a.n.ls.Rightmost(); ok {
					return rm
				}
			case k < 6 && len(members) > 0:
				return members[rng.Intn(len(members))]
			}
			return universe[rng.Intn(len(universe))]
		}
		list := func(max int) []NodeRef {
			out := make([]NodeRef, rng.Intn(max+1))
			for i := range out {
				out[i] = pick()
			}
			return out
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(8) {
			case 0:
				x := pick()
				both(func(n *Node) { n.ls.Remove(x.ID) })
			case 1:
				if x := pick(); x.ID != self {
					both(func(n *Node) { n.markFaulty(x, false) })
				}
			case 2:
				d := time.Duration(rng.Intn(40)) * time.Second
				a.net.run(d)
				b.net.run(d)
			}
			from := pick()
			if from.ID == self {
				from = universe[rng.Intn(len(universe))]
			}
			leaves := list(l + 2)
			var m Message
			if rng.Intn(2) == 0 {
				m = &LSProbe{From: from, Leaves: leaves, Failed: list(2), NeedNear: rng.Intn(2) == 0, TrtHint: time.Minute}
			} else {
				near := list(l + 1)
				// Some identifiers arrive in both lists.
				for i := range near {
					if len(leaves) > 0 && rng.Intn(3) == 0 {
						near[i] = leaves[rng.Intn(len(leaves))]
					}
				}
				// Often a reply to an outstanding leaf probe, completing it.
				var probed []NodeRef
				for _, ps := range a.n.probing {
					if ps.isLeaf {
						probed = append(probed, ps.ref)
					}
				}
				if len(probed) > 0 && rng.Intn(2) == 0 {
					sort.Slice(probed, func(i, j int) bool { return probed[i].ID.Less(probed[j].ID) })
					from = probed[rng.Intn(len(probed))]
				}
				m = &LSProbeReply{From: from, Leaves: leaves, Near: near, Failed: list(2), TrtHint: time.Minute}
			}
			a.n.Receive(m)
			refReceive(b.n, m)
			if !slices.Equal(a.sent, b.sent) {
				t.Fatalf("seed %d step %d: sent\n%q\nwant\n%q", seed, step, a.sent, b.sent)
			}
			if sa, sb := a.state(), b.state(); sa != sb {
				t.Fatalf("seed %d step %d: state\n%s\nwant\n%s", seed, step, sa, sb)
			}
			checkIndex(t, a.n, universe, from.ID, step)
			a.sent, b.sent = a.sent[:0], b.sent[:0]
		}
	}
}

// TestNearestKnownTieBreak pins nearestKnown's order where random
// identifiers never reach: two entries at exactly equal ring distance on
// opposite sides of the target (the clockwise one first, as
// id.CloserToKey breaks the tie), the target itself in routing state
// (left out), and k larger than the routing state (everything else
// returned). The leaf-set next hop breaks the same tie the same way.
func TestNearestKnownTieBreak(t *testing.T) {
	self := id.New(0x8000_0000_0000_0000, 0)
	cfg := testConfig()
	cfg.L = 32
	n := newTestNet(t, 1).addNode(self, cfg, nil)
	target := self.Add(id.New(0, 1000))
	d := id.New(0, 7)
	cw, ccw := target.Add(d), target.Sub(d)
	var refs []NodeRef
	for i, x := range []id.ID{
		ccw, cw, target,
		target.Add(id.New(0, 3)), target.Sub(id.New(0, 500)),
		self.Sub(id.New(0, 40)), self.Add(id.New(1, 0)),
		id.New(0x1000_0000_0000_0000, 5), id.New(0xF000_0000_0000_0000, 5),
	} {
		refs = append(refs, NodeRef{ID: x, Addr: fmt.Sprintf("a%d", i)})
	}
	for _, r := range refs {
		n.ls.Add(r)
		n.rt.Add(r)
	}
	known := 0
	n.eachInRoutingState(func(NodeRef, *peer.Record) { known++ })
	got := n.nearestKnown(target, known+5)
	if len(got) != known-1 {
		t.Fatalf("got %d entries, want %d (all but the target)", len(got), known-1)
	}
	for i, r := range got {
		if r.ID == target {
			t.Fatalf("target returned at %d", i)
		}
		if i > 0 && !id.CloserToKey(target, got[i-1].ID, r.ID) {
			t.Fatalf("order broken at %d: %v before %v", i, got[i-1].ID, r.ID)
		}
	}
	if want := refNearestKnown(n, target, known+5); !slices.Equal(got, want) {
		t.Fatalf("nearestKnown\n%v\nwant\n%v", got, want)
	}
	if i, j := slices.IndexFunc(got, func(r NodeRef) bool { return r.ID == cw }),
		slices.IndexFunc(got, func(r NodeRef) bool { return r.ID == ccw }); i < 0 || j != i+1 {
		t.Fatalf("tie: clockwise entry at %d, counter-clockwise at %d; want adjacent, clockwise first", i, j)
	}

	// ringKey against id.CloserToKey on the tie, equal identifiers and
	// the antipode, in both argument orders.
	anti := target.Add(id.Half)
	for _, c := range [][2]id.ID{{cw, ccw}, {cw, cw}, {anti, cw}, {anti, ccw}, {target, ccw}, {anti, anti}} {
		for _, p := range [][2]id.ID{c, {c[1], c[0]}} {
			if got, want := ringKeyOf(target, p[0]).less(ringKeyOf(target, p[1])), id.CloserToKey(target, p[0], p[1]); got != want {
				t.Fatalf("ringKey less(%v, %v) = %v, CloserToKey %v", p[0], p[1], got, want)
			}
		}
	}

	// The leaf-set next hop for a key midway between two members.
	n2 := newTestNode(t, self)
	for _, r := range []NodeRef{{ID: cw, Addr: "cw"}, {ID: ccw, Addr: "ccw"}} {
		n2.ls.Add(r)
	}
	if hop, ok := n2.closestLeaf(target, nil); !ok || hop.ID != cw {
		t.Fatalf("closestLeaf = %v (%v), want the clockwise member %v", hop.ID, ok, cw)
	}
}

// TestLSProbeReplyAllocs guards the copy-free repair path: a probe reply
// whose sender and every Leaves and Near entry are already leaf members
// allocates nothing.
func TestLSProbeReplyAllocs(t *testing.T) {
	n := tickNode(t)
	members := n.ls.Members()
	p := &LSProbeReply{
		From:    members[0],
		Leaves:  members,
		Near:    members[:n.cfg.L/2+1],
		TrtHint: time.Minute,
	}
	if allocs := testing.AllocsPerRun(50, func() { n.Receive(p) }); allocs != 0 {
		t.Fatalf("probe reply allocated %v times, want 0", allocs)
	}
}
