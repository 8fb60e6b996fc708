package pastry

import (
	"slices"
	"time"

	"mspastry/internal/id"
	"mspastry/internal/overload"
	"mspastry/internal/peer"
)

// Per-peer state slots on the unified peer registry (see internal/peer).
//
// Every piece of per-peer protocol state the node keeps — self-tuning
// hints, probe-suppression memory, overload protection, the reconnect
// graveyard, RTT estimators — hangs off one peer.Record in n.peers,
// under the slot handles registered here. Each prunable slot's PruneFunc
// states exactly how long its state stays meaningful; the single sweep
// at the end of every maintenance tick (sweepPeers) applies them all and
// evicts fully drained records, broadcasting the eviction to transports
// and upper layers. No per-peer state survives eviction from routing
// state: that is the registry's invariant, pinned by the cross-layer
// leak-detector test in the harness.

// trtHint is the peer's advertised routing-table probing period, fed to
// the self-tuning median. A pointer so hot-path updates mutate in place
// instead of boxing a fresh value per message.
type trtHint struct{ d time.Duration }

// suppressState is probe-suppression memory: when the peer was last
// distance-probed, last probed as a leaf-set candidate, and last sent a
// leaf-set repair probe. Zero means "never" — the simulation clock is
// strictly positive whenever these are written.
type suppressState struct {
	distProbed  time.Duration
	lsCandidate time.Duration
	lastRepair  time.Duration
}

// overloadState is the peer's overload protection: circuit breaker and
// retry-budget token bucket (either may be nil).
type overloadState struct {
	breaker *overload.Breaker
	budget  *overload.TokenBucket
}

// initPeers creates the registry, registers the component slots and
// attaches the routing-state index to the leaf set and routing table.
// Registration order is pruning order within a record (immaterial here:
// no pruner reads another slot).
func (n *Node) initPeers() {
	n.peers = peer.New(peer.Config{
		StrangerTTL: n.cfg.PeerStrangerTTL,
		AdmittedTTL: n.cfg.PeerAdmittedTTL,
	})
	n.slotHint = n.peers.NewSlot("trt-hint", pruneHint)
	n.slotSuppress = n.peers.NewSlot("suppress", n.pruneSuppress)
	n.slotOverload = n.peers.NewSlot("overload", pruneOverload)
	n.slotGrave = n.peers.NewSlot("graveyard", pruneKeep)
	n.slotRTT = n.peers.NewRetainedSlot("rtt")
	n.idx = routingIndex{peers: n.peers, env: n.env, addrRefs: make(map[string]int)}
	n.ls.idx, n.rt.idx = &n.idx, &n.idx
}

// routingIndex is the node's routing-state membership index. The leaf
// set and routing table call it from their mutators at the moment they
// admit or drop a peer, so per-tick consumers read membership instead of
// rebuilding it. It keeps three things in step with the two structures:
//
//   - the InLeafSet and InTable bits on each member's peer record (the
//     record is created on admission if the peer has none; the registry
//     never evicts a record while a bit is set);
//   - addrRefs, the number of leaf-set and table entries carrying each
//     transport address. The failure-rate estimator counts monitored
//     nodes by address, and an address can be reused by a fresh
//     identifier (a churned node restarting), so counting identifiers
//     would count one monitored endpoint twice;
//   - leafRecs, the records of the leaf set's Members(), index-aligned
//     (spare is the buffer the next realignment fills).
type routingIndex struct {
	peers    *peer.Registry
	env      Env
	addrRefs map[string]int
	leafRecs []*peer.Record
	spare    []*peer.Record
}

// admit marks ref as held by the structure m and returns its record.
// An existing record is neither touched nor re-addressed: admission is
// not contact.
func (ix *routingIndex) admit(ref NodeRef, m peer.Membership) *peer.Record {
	rec := ix.peers.Lookup(ref.ID)
	if rec == nil {
		rec = ix.peers.Obtain(ref.ID, ref.Addr, ix.env.Now())
	}
	rec.SetMembership(m, true)
	ix.addrRefs[ref.Addr]++
	return rec
}

// drop clears the structure m's hold on ref, whose record is rec.
func (ix *routingIndex) drop(ref NodeRef, rec *peer.Record, m peer.Membership) {
	rec.SetMembership(m, false)
	if ix.addrRefs[ref.Addr]--; ix.addrRefs[ref.Addr] == 0 {
		delete(ix.addrRefs, ref.Addr)
	}
}

// leafChanged applies a leaf-set mutation. old and cur are Members()
// before and after it; touched holds the at most three identifiers
// whose side membership it changed (the inserted ref and the members an
// overflowing insert pushed out, or the removed ref). Every other member
// keeps its entry and its relative order in Members() — left side
// first, then the right-only members — so its record carries over in a
// merge walk. A touched identifier is dropped under its old entry and
// admitted under its new one when the two differ: it left, it arrived,
// or, in a set that wraps the ring, Members() now shows its entry from
// the other side (which can carry another address). Cost
// O(len(cur)·len(touched)).
func (ix *routingIndex) leafChanged(old, cur []NodeRef, touched []id.ID) {
	var recs [3]*peer.Record // touched[t]'s record in cur, if a member
	for t, x := range touched {
		if slices.Index(touched, x) < t {
			continue // pushed out of both sides: seen already
		}
		hasX := func(r NodeRef) bool { return r.ID == x }
		o, c := slices.IndexFunc(old, hasX), slices.IndexFunc(cur, hasX)
		if o >= 0 && c >= 0 && old[o] == cur[c] {
			recs[t] = ix.leafRecs[o]
			continue
		}
		if o >= 0 {
			ix.drop(old[o], ix.leafRecs[o], peer.InLeafSet)
		}
		if c >= 0 {
			recs[t] = ix.admit(cur[c], peer.InLeafSet)
		}
	}
	out := ix.spare[:0]
	o := 0
	for _, c := range cur {
		if t := slices.Index(touched, c.ID); t >= 0 {
			out = append(out, recs[t])
			continue
		}
		for slices.Contains(touched, old[o].ID) {
			o++
		}
		out = append(out, ix.leafRecs[o])
		o++
	}
	ix.leafRecs, ix.spare = out, ix.leafRecs
}

// eachInRoutingState visits every peer in routing state exactly once,
// with its record: the occupied routing-table slots in row-major order,
// then the leaf-set members not in the table in Members() order. fn must
// not change the leaf set or routing table.
func (n *Node) eachInRoutingState(fn func(ref NodeRef, rec *peer.Record)) {
	for _, o := range n.rt.occ {
		fn(n.rt.entry(o).ref, o.rec)
	}
	members, recs := n.leafMembers()
	for i, m := range members {
		if rec := recs[i]; !rec.Has(peer.InTable) {
			fn(m, rec)
		}
	}
}

// leafMembers returns the leaf set's Members() and their records,
// index-aligned.
func (n *Node) leafMembers() ([]NodeRef, []*peer.Record) {
	return n.ls.Members(), n.idx.leafRecs
}

// sweepPeers runs the registry's prune pass; called once per maintenance
// tick. Membership for lifecycle purposes is the full routing state plus
// peers under an outstanding probe (a probe target must not be evicted
// mid-probe), as recorded on each record.
func (n *Node) sweepPeers() {
	n.peers.Sweep(n.env.Now())
}

// PeerMember reports whether x currently counts as routing-state
// membership for the registry lifecycle: leaf set, routing table, or an
// outstanding probe. Exposed for the cross-layer leak detector.
func (n *Node) PeerMember(x id.ID) bool {
	rec := n.peers.Lookup(x)
	return rec != nil && rec.Member()
}

// pruneHint drops self-tuning hints from peers no longer in the leaf set
// or routing table, so the median reflects live peers. Deliberately
// narrower than registry membership: a peer under probe but out of
// routing state must not keep voting.
func pruneHint(rec *peer.Record, v any, _ time.Duration) any {
	if !rec.InRoutingState() {
		return nil
	}
	return v
}

// pruneSuppress expires each suppression timestamp at twice its pacing
// window — after that a re-probe would be due anyway, so the memory
// carries no information.
func (n *Node) pruneSuppress(_ *peer.Record, v any, now time.Duration) any {
	s := v.(*suppressState)
	if s.distProbed != 0 && now-s.distProbed > 2*n.cfg.RTMaintenance {
		s.distProbed = 0
	}
	if s.lsCandidate != 0 && now-s.lsCandidate > 2*n.cfg.Tls {
		s.lsCandidate = 0
	}
	if s.lastRepair != 0 && now-s.lastRepair > 2*n.cfg.To {
		s.lastRepair = 0
	}
	if s.distProbed == 0 && s.lsCandidate == 0 && s.lastRepair == 0 {
		return nil
	}
	return v
}

// pruneOverload drops idle overload-protection state so the slot tracks
// only peers under active suspicion: full (fully refilled) budget
// buckets, closed breakers with no strikes, and half-open breakers no
// traffic has tried for a full maximum cooldown carry no information.
// State for peers outside the leaf set and routing table goes too —
// routing only ever picks next hops from those two structures.
func pruneOverload(rec *peer.Record, v any, now time.Duration) any {
	st := v.(*overloadState)
	if st.budget != nil && (st.budget.Full(now) || !rec.InRoutingState()) {
		st.budget = nil
	}
	if b := st.breaker; b != nil &&
		((b.State() == overload.BreakerClosed && b.Failures() == 0) || b.Stale(now) || !rec.InRoutingState()) {
		st.breaker = nil
	}
	if st.budget == nil && st.breaker == nil {
		return nil
	}
	return v
}

// pruneKeep retains the slot value until it is cleared explicitly — the
// reconnect graveyard manages its own expiry (retryReconnect).
func pruneKeep(_ *peer.Record, v any, _ time.Duration) any { return v }

// setTrtHint records the peer's advertised probing period.
func (n *Node) setTrtHint(rec *peer.Record, d time.Duration) {
	if h, _ := rec.Get(n.slotHint).(*trtHint); h != nil {
		h.d = d
		return
	}
	n.peers.Put(rec, n.slotHint, &trtHint{d: d})
}

// suppressOf returns the record's suppression memory, creating it when
// absent (every caller writes a field right after checking it).
func (n *Node) suppressOf(rec *peer.Record) *suppressState {
	if s, _ := rec.Get(n.slotSuppress).(*suppressState); s != nil {
		return s
	}
	s := &suppressState{}
	n.peers.Put(rec, n.slotSuppress, s)
	return s
}

// overloadOf returns the record's overload state, creating it when
// absent.
func (n *Node) overloadOf(rec *peer.Record) *overloadState {
	if st, _ := rec.Get(n.slotOverload).(*overloadState); st != nil {
		return st
	}
	st := &overloadState{}
	n.peers.Put(rec, n.slotOverload, st)
	return st
}

// overloadFor is the read-only lookup: nil when the peer has no record
// or no overload state.
func (n *Node) overloadFor(x id.ID) *overloadState {
	rec := n.peers.Lookup(x)
	if rec == nil {
		return nil
	}
	st, _ := rec.Get(n.slotOverload).(*overloadState)
	return st
}

// clearSlot empties the peer's slot if it holds a value.
func (n *Node) clearSlot(x id.ID, s peer.Slot) {
	if rec := n.peers.Lookup(x); rec != nil {
		n.clearRecordSlot(rec, s)
	}
}

// clearRecordSlot is clearSlot for a caller holding the record.
func (n *Node) clearRecordSlot(rec *peer.Record, s peer.Slot) {
	if rec.Get(s) != nil {
		n.peers.Put(rec, s, nil)
	}
}

// Peers returns the node's per-peer state registry. Transports and upper
// layers subscribe to eviction broadcasts here; telemetry and tests read
// cardinality.
func (n *Node) Peers() *peer.Registry { return n.peers }

// PeerStats snapshots the registry's cardinality and prune economics for
// status reporting. Kept out of Counters on purpose: the evaluation's
// counter set is frozen by the canonical report format.
func (n *Node) PeerStats() peer.Stats { return n.peers.Stats() }
