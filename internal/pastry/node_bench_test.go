package pastry

import (
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/peer"
)

// benchNode builds a node with a realistic amount of routing state. Its
// sends are delivered with zero delay (to peers that do not exist), so
// settle can drain them without moving the clock.
func benchNode(b *testing.B, peers int) (*testNet, *Node, []NodeRef) {
	b.Helper()
	net := &testNet{
		sim:   eventsim.New(1),
		nodes: make(map[string]*Node),
		sent:  make(map[Category]int),
	}
	rng := rand.New(rand.NewSource(1))
	self := id.Random(rng)
	env := &testEnv{net: net, addr: "b0", self: NodeRef{ID: self, Addr: "b0"}}
	cfg := DefaultConfig()
	n, err := NewNode(env.self, cfg, env, nil)
	if err != nil {
		b.Fatal(err)
	}
	net.nodes["b0"] = n
	n.Bootstrap()
	var refs []NodeRef
	for i := 0; i < peers; i++ {
		ref := NodeRef{ID: id.Random(rng), Addr: "peer"}
		refs = append(refs, ref)
		n.rt.AddWithRTT(ref, time.Duration(rng.Intn(100))*time.Millisecond)
		n.ls.Add(ref)
	}
	return net, n, refs
}

// settleEvery is the number of iterations benchLoop runs between settles.
const settleEvery = 1024

// benchLoop runs body b.N times on a benchNode node. One untimed round of
// settleEvery iterations first grows the event queue and the node's
// tables to their working size; after that the node is settled every
// settleEvery iterations outside the timed region: every hop still
// awaiting an ack is acked and the deliveries due now run. B/op so does
// not depend on b.N. The clock never moves, so no timer fires.
func benchLoop(b *testing.B, net *testNet, n *Node, body func(i int)) {
	settle := func() {
		for xfer, ph := range n.pending {
			n.Receive(&Ack{Xfer: xfer, From: ph.to})
		}
		net.sim.RunUntil(net.sim.Now())
	}
	for i := 0; i < settleEvery; i++ {
		body(i)
	}
	settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%settleEvery == 0 {
			b.StopTimer()
			settle()
			b.StartTimer()
		}
		body(i)
	}
}

// tickNode builds an active node in the shape the maintenance tick sees
// in a steady overlay: a full leaf set, 40 routing-table entries (every
// member advertising a Trt hint) and 200 stranger records, at a fixed
// clock reading. Two warm-up ticks start every member's probing clock
// and heartbeat the left neighbour, so further ticks at the same clock
// send nothing.
func tickNode(tb testing.TB) *Node {
	tb.Helper()
	net := &testNet{
		sim:   eventsim.New(1),
		nodes: make(map[string]*Node),
		delay: time.Millisecond,
		sent:  make(map[Category]int),
	}
	net.sim.RunUntil(time.Hour)
	rng := rand.New(rand.NewSource(8))
	self := NodeRef{ID: id.Random(rng), Addr: "b0"}
	n, err := NewNode(self, DefaultConfig(), &testEnv{net: net, addr: "b0", self: self}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	net.nodes["b0"] = n
	n.Bootstrap()
	now := n.env.Now()
	peerRef := func(x id.ID) NodeRef { return NodeRef{ID: x, Addr: x.String()[:12]} }
	// Leaf members: evenly spaced close to self on both sides.
	step := id.New(0, 1<<40)
	off := step
	for n.ls.Size() < n.cfg.L {
		n.ls.Add(peerRef(self.ID.Add(off)))
		n.ls.Add(peerRef(self.ID.Sub(off)))
		off = off.Add(step)
	}
	// Table entries: random identifiers sharing ever longer prefixes
	// with self, so several rows fill.
	for shift := uint(60); n.rt.Count() < 40; shift -= 4 {
		for i := 0; i < 8; i++ {
			x := id.Random(rng)
			x.Hi = self.ID.Hi>>shift<<shift | x.Hi&(1<<shift-1)
			n.rt.Add(peerRef(x))
		}
	}
	n.eachInRoutingState(func(ref NodeRef, rec *peer.Record) {
		rec.LastRecv = now
		n.setTrtHint(rec, time.Duration(30+rng.Intn(60))*time.Second)
	})
	for i := 0; i < 200; i++ {
		n.peers.Obtain(id.Random(rng), "stranger", now)
	}
	n.onTick()
	n.onTick()
	return n
}

// BenchmarkNodeTick measures one maintenance tick on a populated node
// when no peer is due for a probe: the fixed per-tick cost of
// heartbeat checks, the routing-table scan, self-tuning and the
// registry sweep.
func BenchmarkNodeTick(b *testing.B) {
	n := tickNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.onTick()
	}
}

func BenchmarkNodeNextHop(b *testing.B) {
	_, n, _ := benchNode(b, 2000)
	rng := rand.New(rand.NewSource(2))
	keys := make([]id.ID, 1024)
	for i := range keys {
		keys[i] = id.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.nextHop(keys[i%len(keys)], nil)
	}
}

func BenchmarkNodeReceiveLookupEnvelope(b *testing.B) {
	net, n, refs := benchNode(b, 2000)
	rng := rand.New(rand.NewSource(3))
	envs := make([]*Envelope, 256)
	for i := range envs {
		envs[i] = &Envelope{
			Xfer:    uint64(i),
			NeedAck: true,
			From:    refs[rng.Intn(len(refs))],
			Lookup: &Lookup{
				Key:    id.Random(rng),
				Seq:    uint64(i),
				Origin: refs[rng.Intn(len(refs))],
			},
		}
	}
	benchLoop(b, net, n, func(i int) {
		e := envs[i%len(envs)]
		lk := *e.Lookup
		env := *e
		env.Lookup = &lk
		n.Receive(&env)
	})
}

func BenchmarkNodeHandleLSProbe(b *testing.B) {
	net, n, refs := benchNode(b, 64)
	rng := rand.New(rand.NewSource(4))
	probes := make([]*LSProbe, 64)
	for i := range probes {
		leaves := make([]NodeRef, 16)
		for j := range leaves {
			leaves[j] = refs[rng.Intn(len(refs))]
		}
		probes[i] = &LSProbe{From: refs[rng.Intn(len(refs))], Leaves: leaves}
	}
	benchLoop(b, net, n, func(i int) { n.Receive(probes[i%len(probes)]) })
}

// BenchmarkNodeHandleLSProbeNeedNear measures a leaf-set probe from a
// repairing node: L leaves to filter, plus the reply's L+1 nearest known
// nodes.
func BenchmarkNodeHandleLSProbeNeedNear(b *testing.B) {
	net, n, refs := benchNode(b, 64)
	rng := rand.New(rand.NewSource(4))
	probes := make([]*LSProbe, 64)
	for i := range probes {
		leaves := make([]NodeRef, n.cfg.L)
		for j := range leaves {
			leaves[j] = refs[rng.Intn(len(refs))]
		}
		probes[i] = &LSProbe{From: refs[rng.Intn(len(refs))], Leaves: leaves, NeedNear: true}
	}
	benchLoop(b, net, n, func(i int) { n.Receive(probes[i%len(probes)]) })
}

// BenchmarkNodeHandleLSProbeReply measures a probe reply to a repairing
// node: L leaves and L+1 nearest known nodes to filter.
func BenchmarkNodeHandleLSProbeReply(b *testing.B) {
	net, n, refs := benchNode(b, 64)
	rng := rand.New(rand.NewSource(9))
	replies := make([]*LSProbeReply, 64)
	pick := func(k int) []NodeRef {
		out := make([]NodeRef, k)
		for j := range out {
			out[j] = refs[rng.Intn(len(refs))]
		}
		return out
	}
	for i := range replies {
		replies[i] = &LSProbeReply{
			From:   refs[rng.Intn(len(refs))],
			Leaves: pick(n.cfg.L),
			Near:   pick(n.cfg.L + 1),
		}
	}
	benchLoop(b, net, n, func(i int) { n.Receive(replies[i%len(replies)]) })
}

func BenchmarkLeafSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	self := id.Random(rng)
	refs := make([]NodeRef, 4096)
	for i := range refs {
		refs[i] = NodeRef{ID: id.Random(rng), Addr: "x"}
	}
	ls := NewLeafSet(self, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.Add(refs[i%len(refs)])
	}
}

func BenchmarkSolveTrt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		solveTrt(0.05, 30, 3, 1.2e-4, 2.57, 2, 9, 3600)
	}
}

// BenchmarkLeafSetMembers measures the deduplicated member enumeration
// that routing fallback, delivery guards, probing and the dht sweeps all
// call — one of the hottest read paths in the node.
func BenchmarkLeafSetMembers(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	self := id.Random(rng)
	ls := NewLeafSet(self, 32)
	for i := 0; i < 4096; i++ {
		ls.Add(NodeRef{ID: id.Random(rng), Addr: "x"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += len(ls.Members())
	}
	_ = sink
}

// BenchmarkMessageWireSize measures the per-send size accounting the
// simulated network charges every message (netmodel Send, no coalescing).
func BenchmarkMessageWireSize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	leaves := make([]NodeRef, 16)
	for i := range leaves {
		leaves[i] = NodeRef{ID: id.Random(rng), Addr: "12345"}
	}
	msgs := []Message{
		&Ack{Xfer: 12345, From: leaves[0], TrtHint: 30 * time.Second},
		&Heartbeat{From: leaves[1], TrtHint: 30 * time.Second},
		&Envelope{
			Xfer: 9, NeedAck: true, From: leaves[2], TrtHint: 30 * time.Second,
			Lookup: &Lookup{Key: id.Random(rng), Seq: 77, Origin: leaves[3]},
		},
		&LSProbe{From: leaves[4], Leaves: leaves, TrtHint: 30 * time.Second},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += MessageWireSize(msgs[i%len(msgs)])
	}
	_ = sink
}
