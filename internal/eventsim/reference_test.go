package eventsim_test

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mspastry/internal/eventsim"
)

// refSim is a reference copy of the scheduler this package used to be: a
// container/heap binary heap of heap-allocated events ordered by (when,
// seq), with cancelled events reaped when they reach the top. Guarded
// timers are what callers used to build on it: a wrapper closure that
// checks the guard.
type refSim struct {
	now    time.Duration
	events refHeap
	seq    uint64
	steps  uint64
}

type refEvent struct {
	when     time.Duration
	seq      uint64
	fn       func()
	canceled bool
}

func (e *refEvent) Cancel() { e.canceled = true }

func (s *refSim) at(t time.Duration, fn func()) *refEvent {
	if t < s.now {
		panic("refsim: scheduling in the past")
	}
	e := &refEvent{when: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

func (s *refSim) step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*refEvent)
		if e.canceled {
			continue
		}
		if e.when > s.now {
			s.now = e.when
		}
		s.steps++
		e.fn()
		return true
	}
	return false
}

func (s *refSim) runUntil(t time.Duration) {
	for len(s.events) > 0 {
		if e := s.events[0]; e.canceled {
			heap.Pop(&s.events)
			continue
		} else if e.when > t {
			break
		}
		s.step()
	}
	if s.now < t {
		s.now = t
	}
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// sched is what the workload below needs from a scheduler; one
// implementation drives the real Simulator, one the reference.
type sched interface {
	now() time.Duration
	// schedule arms fn at now+d by one of the scheduling paths (0 At,
	// 1 After, 2 Post, 3 PostAfter, 4 guarded) and returns the cancel
	// func of a handle, or nil for the handle-free paths.
	schedule(kind int, d time.Duration, guard *bool, fn func()) func()
	step() bool
	runUntil(t time.Duration)
	steps() uint64
}

type realSched struct{ s *eventsim.Simulator }

func (r realSched) now() time.Duration { return r.s.Now() }
func (r realSched) schedule(kind int, d time.Duration, guard *bool, fn func()) func() {
	switch kind {
	case 0:
		return r.s.At(r.s.Now()+d, fn).Cancel
	case 1:
		return r.s.After(d, fn).Cancel
	case 2:
		r.s.Post(r.s.Now()+d, fn)
	case 3:
		r.s.PostAfter(d, fn)
	default:
		return r.s.AfterGuarded(d, guard, fn).Cancel
	}
	return nil
}
func (r realSched) step() bool               { return r.s.Step() }
func (r realSched) runUntil(t time.Duration) { r.s.RunUntil(t) }
func (r realSched) steps() uint64            { return r.s.Steps() }

type refSched struct{ s *refSim }

func (r refSched) now() time.Duration { return r.s.now }
func (r refSched) schedule(kind int, d time.Duration, guard *bool, fn func()) func() {
	t := r.s.now + d
	switch kind {
	case 0, 1:
		return r.s.at(t, fn).Cancel
	case 2, 3:
		r.s.at(t, fn)
	default:
		return r.s.at(t, func() {
			if *guard {
				fn()
			}
		}).Cancel
	}
	return nil
}
func (r refSched) step() bool               { return r.s.step() }
func (r refSched) runUntil(t time.Duration) { r.s.runUntil(t) }
func (r refSched) steps() uint64            { return r.s.steps }

// workload drives a scheduler through a seeded random script and returns
// the log of every callback that ran, with its time. Times are drawn
// from a few milliseconds so same-time ties are common. Callbacks
// schedule further events (zero delays included), cancel handles that
// may be pending, fired or already cancelled, and kill or revive the
// owners whose flags guard timers. Part of the script runs through
// RunUntil, the rest one Step at a time.
func workload(s sched, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var (
		log     []string
		cancels []func()
		owners  [4]bool
		armed   int
	)
	for i := range owners {
		owners[i] = true
	}
	var arm func(label string)
	arm = func(label string) {
		armed++
		kind := rng.Intn(5)
		d := time.Duration(rng.Intn(6)) * time.Millisecond
		owner := rng.Intn(len(owners))
		fn := func() {
			log = append(log, fmt.Sprintf("%s@%v", label, s.now()))
			if armed < 3000 {
				for c := rng.Intn(3); c > 0; c-- {
					arm(fmt.Sprintf("%s.%d", label, armed))
				}
			}
			switch r := rng.Intn(10); {
			case r < 3 && len(cancels) > 0:
				cancels[rng.Intn(len(cancels))]()
			case r == 3:
				owners[rng.Intn(len(owners))] = false
			case r == 4:
				owners[rng.Intn(len(owners))] = true
			}
		}
		if c := s.schedule(kind, d, &owners[owner], fn); c != nil {
			cancels = append(cancels, c)
		}
	}
	for i := 0; i < 200; i++ {
		arm(fmt.Sprint(i))
	}
	// Cancel some handles before anything fires.
	for i := 0; i < len(cancels); i += 7 {
		cancels[i]()
	}
	s.runUntil(3 * time.Millisecond)
	log = append(log, fmt.Sprintf("until@%v steps=%d", s.now(), s.steps()))
	for s.step() {
	}
	log = append(log, fmt.Sprintf("end@%v steps=%d", s.now(), s.steps()))
	return log
}

// TestFiringOrderMatchesReference checks the 4-ary slot-table queue
// against the container/heap implementation it replaced: same callbacks,
// same order, same clock, same step count, over many seeded scripts.
func TestFiringOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := workload(realSched{eventsim.New(seed)}, seed)
		want := workload(refSched{&refSim{}}, seed)
		if len(got) < 400 {
			t.Fatalf("seed %d: only %d log lines; the workload is too small to test anything", seed, len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, reference has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d = %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}
