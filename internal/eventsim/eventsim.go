// Package eventsim provides a deterministic discrete-event simulation
// engine: a virtual clock, a priority queue of scheduled callbacks and a
// seeded random source. The MSPastry evaluation in the paper runs on a
// "simple packet-level discrete event simulator"; this is ours.
//
// All state transitions in a simulation happen inside event callbacks, which
// the engine executes one at a time in (time, schedule-order) order, so
// simulations are single-threaded and reproducible for a given seed.
//
// Scheduling allocates nothing unless a cancellable handle is asked for:
// Post and PostAfter are handle-free, At and After return an *Event. The
// queue is a 4-ary min-heap of pointer-free (time, sequence, slot) values;
// callbacks live in a slot table whose entries are reused through a free
// list.
package eventsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is the handle of a cancellable scheduled callback.
type Event struct {
	when     time.Duration
	canceled bool
}

// When returns the virtual time at which the event is (or was) scheduled.
func (e *Event) When() time.Duration { return e.when }

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// entry is one queued event: its firing time, its schedule order (the
// tie-break that makes (when, seq) a total order) and the slot holding
// its callback. Entries hold no pointers, so the heap is never scanned by
// the garbage collector.
type entry struct {
	when time.Duration
	seq  uint64
	slot uint32
}

func (a entry) before(b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// slot holds a queued event's callback, its handle (nil when posted
// without one) and its guard (nil when unguarded).
type slot struct {
	fn    func()
	ev    *Event
	guard *bool
}

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with New.
type Simulator struct {
	now       time.Duration
	heap      []entry
	slots     []slot
	free      []uint32
	seq       uint64
	rng       *rand.Rand
	steps     uint64
	stopped   bool
	onAdvance func(time.Duration)
}

// New creates a simulator whose clock starts at 0 and whose random source is
// seeded with seed, so runs are reproducible.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's random source. All randomness in a
// simulation must come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far, guarded events
// whose guard was false included; cancelled events do not count.
func (s *Simulator) Steps() uint64 { return s.steps }

// Pending returns the number of queued events. A cancelled event stays
// queued, and counted, until it reaches the head of the queue and is
// discarded there.
func (s *Simulator) Pending() int { return len(s.heap) }

// OnAdvance registers a callback invoked whenever the virtual clock moves
// forward, with the new time. Metric collectors use it to close windows.
func (s *Simulator) OnAdvance(fn func(time.Duration)) { s.onAdvance = fn }

// At schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past (before Now) panics: that is
// always a logic error in a simulation.
func (s *Simulator) At(t time.Duration, fn func()) *Event {
	e := &Event{when: t}
	s.schedule(t, fn, e, nil)
	return e
}

// After schedules fn to run d after the current virtual time and returns
// a handle that can cancel it.
func (s *Simulator) After(d time.Duration, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// AfterGuarded is After for a callback owned by something that can die
// first: when the event fires, fn runs only if *guard is still true.
// Either way the event counts as one step, exactly as if fn had checked
// the guard itself.
func (s *Simulator) AfterGuarded(d time.Duration, guard *bool, fn func()) *Event {
	e := &Event{when: s.now + d}
	s.schedule(e.when, fn, e, guard)
	return e
}

// Post schedules fn to run at absolute virtual time t, without a handle:
// it cannot be cancelled, and scheduling it allocates nothing once the
// queue has grown to its working size.
func (s *Simulator) Post(t time.Duration, fn func()) { s.schedule(t, fn, nil, nil) }

// PostAfter schedules fn to run d after the current virtual time, without
// a handle (see Post).
func (s *Simulator) PostAfter(d time.Duration, fn func()) { s.schedule(s.now+d, fn, nil, nil) }

func (s *Simulator) schedule(t time.Duration, fn func(), ev *Event, guard *bool) {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	s.slots[i] = slot{fn: fn, ev: ev, guard: guard}
	s.push(entry{when: t, seq: s.seq, slot: i})
	s.seq++
}

// take empties slot i, returns it to the free list and returns what it
// held.
func (s *Simulator) take(i uint32) slot {
	sl := s.slots[i]
	s.slots[i] = slot{}
	s.free = append(s.free, i)
	return sl
}

// Stop makes the current Run/RunUntil call return after the current event's
// callback completes.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the next event, advancing the clock to its time. It returns
// false when no events remain.
func (s *Simulator) Step() bool {
	for len(s.heap) > 0 {
		top := s.pop()
		sl := s.take(top.slot)
		if sl.ev != nil && sl.ev.canceled {
			continue
		}
		if top.when > s.now {
			s.now = top.when
			if s.onAdvance != nil {
				s.onAdvance(s.now)
			}
		}
		s.steps++
		if sl.guard == nil || *sl.guard {
			sl.fn()
		}
		return true
	}
	return false
}

// Run executes events until none remain or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with scheduled time <= t, then advances the clock
// to exactly t. Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t time.Duration) {
	s.stopped = false
	for !s.stopped {
		when, ok := s.peek()
		if !ok || when > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
		if s.onAdvance != nil {
			s.onAdvance(s.now)
		}
	}
}

// peek returns the time of the next event that will fire, discarding
// cancelled events at the head of the queue.
func (s *Simulator) peek() (time.Duration, bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if ev := s.slots[top.slot].ev; ev == nil || !ev.canceled {
			return top.when, true
		}
		s.pop()
		s.take(top.slot)
	}
	return 0, false
}

// The queue is a 4-ary min-heap on (when, seq): the children of entry i
// are 4i+1..4i+4. Four children per node halve the tree depth of a binary
// heap, and a node's children share a cache line or two.

func (s *Simulator) push(e entry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

func (s *Simulator) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	s.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return top
}
