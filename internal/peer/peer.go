// Package peer is the per-peer state registry: one record per remote
// peer, holding the liveness timestamps every layer needs plus typed
// component slots for subsystem state (self-tuning hints, probe
// suppression memory, overload protection, the reconnect graveyard),
// with an explicit lifecycle
//
//	observed -> admitted -> evicted
//
// driven by routing-state membership. A peer becomes *observed* the
// first time any message is exchanged with it, *admitted* once it
// enters routing state (leaf set, routing table, or an active probe),
// and *evicted* when it has left routing state, every prunable slot
// has drained, and its record has gone untouched for the class TTL —
// short for strangers that were never admitted (so senders that never
// make it into routing state cannot leak state), long for once-admitted
// peers (so reconnect and RTT memory survive transient membership
// gaps). Eviction is broadcast to subscribers (transports, wire
// coalescers, the DHT) so no layer keeps private per-peer state beyond
// the record's life.
//
// Routing-state membership is not computed by the registry: the owner
// sets it on each record (SetMembership) at the moment its routing
// structures admit or drop the peer, and the sweep reads it from there.
// A record with any membership bit is never evicted, so pointers to
// member records stay valid for as long as the membership lasts.
//
// Ordering guarantees: slot pruners run in registration order within a
// record; records are visited in an unspecified order during a sweep
// (pruning is pure state removal, so this order is unobservable), and
// holder lists (Holders) are in no particular order; evicted records
// are broadcast in ascending identifier order so that any work a
// subscriber performs on eviction (for example flushing a coalescing
// queue) happens in a deterministic sequence, keeping seeded
// simulations replayable.
package peer

import (
	"slices"
	"time"

	"mspastry/internal/id"
)

// Config bounds record lifetimes.
type Config struct {
	// StrangerTTL is how long a never-admitted peer's record survives
	// past its last touch. Strangers hold at most probe-suppression
	// memory, so this only needs to cover the longest suppression
	// window that is read for non-members.
	StrangerTTL time.Duration
	// AdmittedTTL is how long a once-admitted peer's record survives
	// after it leaves routing state, preserving RTT estimates and
	// liveness history across transient membership gaps.
	AdmittedTTL time.Duration
}

// DefaultConfig returns the production lifetimes: strangers expire
// after a minute, once-admitted peers after ten.
func DefaultConfig() Config {
	return Config{
		StrangerTTL: time.Minute,
		AdmittedTTL: 10 * time.Minute,
	}
}

// PruneFunc is a slot's pruning rule, applied to every non-nil slot
// value during a sweep. It returns the replacement value; returning nil
// clears the slot. The record carries the peer's current routing-state
// membership.
type PruneFunc func(rec *Record, v any, now time.Duration) any

// Slot is a handle to one registered component's per-record state.
type Slot struct{ idx int }

type slotDef struct {
	name  string
	prune PruneFunc // nil for retained slots
}

// Membership is a bit set of the routing structures that currently hold
// a peer.
type Membership uint8

const (
	// InLeafSet marks a leaf-set member.
	InLeafSet Membership = 1 << iota
	// InTable marks a routing-table entry.
	InTable
	// Probing marks a peer under an outstanding liveness probe.
	Probing
)

// Record is one peer's state. The exported timestamp fields are the
// liveness bookkeeping every layer shares; component state hangs off
// the registered slots.
type Record struct {
	ID   id.ID
	Addr string

	// LastRecv/LastSent are when a message was last received from /
	// sent to the peer; LastLiveness is the last probe activity;
	// LastHeartbeat is the last heartbeat sent to it.
	LastRecv      time.Duration
	LastSent      time.Duration
	LastLiveness  time.Duration
	LastHeartbeat time.Duration

	touch    time.Duration
	admitted bool
	doomed   bool
	member   Membership
	// at is the record's position in Registry.all (int32 so it packs
	// beside the flags).
	at    int32
	slots []slotVal
	// next chains records whose identifiers share the low half (see
	// Registry.recs).
	next *Record
}

// slotVal is one slot's value and the record's position in the slot's
// holder list (meaningful only while the value is non-nil).
type slotVal struct {
	v  any
	at int
}

// Member reports whether the peer is in routing state: leaf set, routing
// table or an outstanding probe.
func (rec *Record) Member() bool { return rec.member != 0 }

// Has reports whether any of the given membership bits is set.
func (rec *Record) Has(m Membership) bool { return rec.member&m != 0 }

// InRoutingState reports whether the peer is in the leaf set or the
// routing table (an outstanding probe alone does not count).
func (rec *Record) InRoutingState() bool { return rec.Has(InLeafSet | InTable) }

// SetMembership sets or clears membership bits. Only the owner of the
// routing structures calls it, from the mutators that admit or drop the
// peer.
func (rec *Record) SetMembership(m Membership, on bool) {
	if on {
		rec.member |= m
	} else {
		rec.member &^= m
	}
}

// Admitted reports whether the peer ever entered routing state.
func (rec *Record) Admitted() bool { return rec.admitted }

// Doomed reports whether the record awaits final deletion after an
// Expel: its eviction has already been broadcast, and the next sweep
// where its prunable slots have drained removes it without a TTL wait.
func (rec *Record) Doomed() bool { return rec.doomed }

// Admit marks the peer as having entered routing state (and lifts any
// pending expulsion: the peer came back).
func (rec *Record) Admit() {
	rec.admitted = true
	rec.doomed = false
}

// Touch refreshes the record's idle clock.
func (rec *Record) Touch(now time.Duration) {
	if now > rec.touch {
		rec.touch = now
	}
}

// Touched returns when the record's idle clock was last refreshed; TTL
// expiry measures from here.
func (rec *Record) Touched() time.Duration { return rec.touch }

// Registry holds every known peer's record.
type Registry struct {
	cfg Config
	// recs indexes records by the low half of their identifier; records
	// whose low halves collide are chained through Record.next and told
	// apart by the high half. Hashing one word instead of the whole
	// 128-bit identifier makes the lookup on every send and receive
	// cheaper, and random identifiers practically never collide.
	recs map[uint64]*Record
	// all holds the same records as recs, for sweeps and enumerations
	// that would otherwise range over the map.
	all   []*Record
	slots []slotDef
	subs  []func(x id.ID, addr string)

	// holders[i] lists the records whose slot i is non-nil; drops[i]
	// counts cumulative slot values cleared by pruning.
	holders [][]*Record
	drops   []uint64
	// evict is the sweep's reused eviction buffer.
	evict []*Record

	sweeps           uint64
	evictedStrangers uint64
	evictedAdmitted  uint64
	expelled         uint64
}

// New creates an empty registry; zero Config fields take defaults.
func New(cfg Config) *Registry {
	def := DefaultConfig()
	if cfg.StrangerTTL <= 0 {
		cfg.StrangerTTL = def.StrangerTTL
	}
	if cfg.AdmittedTTL <= 0 {
		cfg.AdmittedTTL = def.AdmittedTTL
	}
	return &Registry{cfg: cfg, recs: make(map[uint64]*Record)}
}

// NewSlot registers a prunable component slot. A record cannot be
// evicted while a prunable slot still holds a value: the pruner is the
// component's statement of how long its state stays meaningful.
func (r *Registry) NewSlot(name string, prune PruneFunc) Slot {
	if prune == nil {
		panic("peer: NewSlot requires a prune func (use NewRetainedSlot)")
	}
	return r.addSlot(name, prune)
}

// NewRetainedSlot registers a slot with no pruning rule: its value
// lives exactly as long as the record and never delays eviction. Used
// for state that is only read while the peer is a member (for example
// RTT estimators).
func (r *Registry) NewRetainedSlot(name string) Slot {
	return r.addSlot(name, nil)
}

func (r *Registry) addSlot(name string, prune PruneFunc) Slot {
	r.slots = append(r.slots, slotDef{name: name, prune: prune})
	r.holders = append(r.holders, nil)
	r.drops = append(r.drops, 0)
	return Slot{idx: len(r.slots) - 1}
}

// OnEvict subscribes to eviction broadcasts. Subscribers are invoked in
// subscription order, once per evicted peer, after the record is gone.
func (r *Registry) OnEvict(fn func(x id.ID, addr string)) {
	r.subs = append(r.subs, fn)
}

// Lookup returns the peer's record, or nil if none exists.
func (r *Registry) Lookup(x id.ID) *Record {
	rec := r.recs[x.Lo]
	for rec != nil && rec.ID.Hi != x.Hi {
		rec = rec.next
	}
	return rec
}

// Obtain returns the peer's record, creating it (observed, not yet
// admitted) on first contact, refreshing its address and idle clock.
func (r *Registry) Obtain(x id.ID, addr string, now time.Duration) *Record {
	head := r.recs[x.Lo]
	for rec := head; rec != nil; rec = rec.next {
		if rec.ID.Hi == x.Hi {
			rec.Refresh(addr, now)
			return rec
		}
	}
	rec := &Record{ID: x, Addr: addr, touch: now, at: int32(len(r.all)), next: head}
	r.recs[x.Lo] = rec
	r.all = append(r.all, rec)
	return rec
}

// unlink removes rec from its collision chain in recs.
func (r *Registry) unlink(rec *Record) {
	head := r.recs[rec.ID.Lo]
	if head == rec {
		if rec.next == nil {
			delete(r.recs, rec.ID.Lo)
		} else {
			r.recs[rec.ID.Lo] = rec.next
		}
	} else {
		p := head
		for p.next != rec {
			p = p.next
		}
		p.next = rec.next
	}
	rec.next = nil
}

// Refresh is what Obtain does to an existing record: adopt a non-empty
// address and refresh the idle clock. For callers that already hold the
// record. An unchanged address is not stored again (the store would cost
// a write barrier on every receive).
func (rec *Record) Refresh(addr string, now time.Duration) {
	if addr != "" && addr != rec.Addr {
		rec.Addr = addr
	}
	rec.Touch(now)
}

// Get returns the record's value for the slot (nil when unset).
func (rec *Record) Get(s Slot) any {
	if s.idx >= len(rec.slots) {
		return nil
	}
	return rec.slots[s.idx].v
}

// Put stores the record's value for the slot (nil clears it), keeping
// the slot's holder list in step.
func (r *Registry) Put(rec *Record, s Slot, v any) {
	for s.idx >= len(rec.slots) {
		rec.slots = append(rec.slots, slotVal{})
	}
	old := rec.slots[s.idx].v
	rec.slots[s.idx].v = v
	if old == nil && v != nil {
		r.hold(rec, s.idx)
	} else if old != nil && v == nil {
		r.release(rec, s.idx)
	}
}

// hold appends rec to slot i's holder list.
func (r *Registry) hold(rec *Record, i int) {
	rec.slots[i].at = len(r.holders[i])
	r.holders[i] = append(r.holders[i], rec)
}

// release removes rec from slot i's holder list by moving the last
// holder into its place.
func (r *Registry) release(rec *Record, i int) {
	h := r.holders[i]
	at, last := rec.slots[i].at, len(h)-1
	h[at] = h[last]
	h[at].slots[i].at = at
	h[last] = nil
	r.holders[i] = h[:last]
}

// SlotCount returns how many records currently hold a value in the slot.
func (r *Registry) SlotCount(s Slot) int { return len(r.holders[s.idx]) }

// Holders returns the records that currently hold a value in the slot,
// in no particular order. The slice is the registry's own: callers must
// not modify it, and must not Put or Sweep while ranging over it.
func (r *Registry) Holders(s Slot) []*Record { return r.holders[s.idx] }

// Len returns the number of live records.
func (r *Registry) Len() int { return len(r.all) }

// Each visits every record in an unspecified order. Pure reads and
// in-place value mutation are safe; callers deriving behaviour from the
// visit order must impose their own deterministic ordering.
func (r *Registry) Each(fn func(*Record)) {
	for _, rec := range r.all {
		fn(rec)
	}
}

// Busy reports whether any prunable slot still holds a value for rec.
// Busy records veto TTL eviction until their slots drain; the leak
// detector uses this to tell vetoed records from genuinely leaked ones.
func (r *Registry) Busy(rec *Record) bool {
	for i, sv := range rec.slots {
		if sv.v != nil && r.slots[i].prune != nil {
			return true
		}
	}
	return false
}

// Expel broadcasts the peer's eviction immediately — its external
// per-peer state (transport addresses, coalescing queues, deposit
// records) is released now — and dooms the record: it is deleted at the
// first sweep where every prunable slot has drained, without waiting
// for the idle TTL. Used when a layer knows the peer is gone for good
// (reconnect cache expiry). Safe to call for peers with no record.
func (r *Registry) Expel(x id.ID, addr string) {
	if rec := r.Lookup(x); rec != nil {
		rec.doomed = true
		if addr == "" {
			addr = rec.Addr
		}
	}
	r.expelled++
	for _, fn := range r.subs {
		fn(x, addr)
	}
}

// Sweep runs one prune pass: every record's prunable slots are pruned,
// members are marked admitted, and non-member records that have fully
// drained and idled past their class TTL (or were expelled) are evicted
// with a broadcast, in ascending identifier order. Membership is read
// from each record (SetMembership). Returns the number of records
// evicted.
func (r *Registry) Sweep(now time.Duration) int {
	r.sweeps++
	evict := r.evict[:0]
	for _, rec := range r.all {
		m := rec.Member()
		if m {
			rec.Admit()
			// Membership is evidence of relevance: refresh the idle
			// clock so the class TTL measures from when the peer *left*
			// routing state (or its last contact, whichever is later),
			// not from its last message while still a member.
			rec.Touch(now)
		}
		busy := false
		for i := range rec.slots {
			v := rec.slots[i].v
			if v == nil {
				continue
			}
			sd := r.slots[i]
			if sd.prune == nil {
				continue // retained: lives with the record
			}
			if v = sd.prune(rec, v, now); v == nil {
				rec.slots[i].v = nil
				r.release(rec, i)
				r.drops[i]++
				continue
			}
			rec.slots[i].v = v
			busy = true
		}
		if m || busy {
			continue
		}
		ttl := r.cfg.StrangerTTL
		if rec.admitted {
			ttl = r.cfg.AdmittedTTL
		}
		if rec.doomed || now-rec.touch >= ttl {
			evict = append(evict, rec)
		}
	}
	slices.SortFunc(evict, func(a, b *Record) int { return a.ID.Cmp(b.ID) })
	for _, rec := range evict {
		r.unlink(rec)
		last := len(r.all) - 1
		r.all[rec.at] = r.all[last]
		r.all[rec.at].at = rec.at
		r.all[last] = nil
		r.all = r.all[:last]
		for i, sv := range rec.slots {
			if sv.v != nil {
				r.release(rec, i)
			}
		}
		if rec.admitted {
			r.evictedAdmitted++
		} else {
			r.evictedStrangers++
		}
		if rec.doomed {
			continue // external state was already released by Expel
		}
		for _, fn := range r.subs {
			fn(rec.ID, rec.Addr)
		}
	}
	n := len(evict)
	clear(evict)
	r.evict = evict[:0]
	return n
}

// SlotStat is one component slot's cardinality and prune economics.
type SlotStat struct {
	Name string `json:"name"`
	// Live is how many records currently hold state in this slot.
	Live int `json:"live"`
	// Dropped is the cumulative number of slot values cleared by
	// pruning (not counting whole-record evictions).
	Dropped uint64 `json:"dropped"`
}

// Stats is a registry snapshot for telemetry and the admin endpoint.
type Stats struct {
	// Live is the total record count; Admitted of those ever entered
	// routing state; Strangers never did; Doomed await final deletion
	// after an Expel.
	Live      int `json:"live"`
	Admitted  int `json:"admitted"`
	Strangers int `json:"strangers"`
	Doomed    int `json:"doomed"`
	// Sweeps counts prune passes; EvictedStrangers/EvictedAdmitted
	// count records evicted by class; Expelled counts immediate
	// eviction broadcasts.
	Sweeps           uint64 `json:"sweeps"`
	EvictedStrangers uint64 `json:"evicted_strangers"`
	EvictedAdmitted  uint64 `json:"evicted_admitted"`
	Expelled         uint64 `json:"expelled"`
	// Slots is the per-component breakdown, in registration order.
	Slots []SlotStat `json:"slots"`
}

// Stats returns a snapshot of the registry's cardinality and prune
// economics.
func (r *Registry) Stats() Stats {
	s := Stats{
		Live:             len(r.all),
		Sweeps:           r.sweeps,
		EvictedStrangers: r.evictedStrangers,
		EvictedAdmitted:  r.evictedAdmitted,
		Expelled:         r.expelled,
	}
	for _, rec := range r.all {
		if rec.admitted {
			s.Admitted++
		} else {
			s.Strangers++
		}
		if rec.doomed {
			s.Doomed++
		}
	}
	s.Slots = make([]SlotStat, len(r.slots))
	for i, sd := range r.slots {
		s.Slots[i] = SlotStat{Name: sd.name, Live: len(r.holders[i]), Dropped: r.drops[i]}
	}
	return s
}
