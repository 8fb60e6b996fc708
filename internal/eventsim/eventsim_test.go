package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRunsEventsInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
}

func TestEqualTimesFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var fired time.Duration
	s.At(5*time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 7*time.Second {
		t.Fatalf("After fired at %v, want 7s", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	e := s.At(time.Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() should be true")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := New(1)
	fired := false
	later := s.At(2*time.Second, func() { fired = true })
	s.At(1*time.Second, func() { later.Cancel() })
	s.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if s.Now() != 2500*time.Millisecond {
		t.Fatalf("clock = %v, want 2.5s", s.Now())
	}
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
	s.Run()
	if count != 10 {
		t.Fatalf("Run after Stop should resume: count=%d", count)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := New(seed)
		var fired []time.Duration
		var schedule func()
		n := 0
		schedule = func() {
			fired = append(fired, s.Now())
			if n++; n < 50 {
				s.After(time.Duration(s.Rand().Intn(1000))*time.Millisecond, schedule)
			}
		}
		s.At(0, schedule)
		s.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestOnAdvanceSeesMonotoneTimes(t *testing.T) {
	s := New(1)
	var ticks []time.Duration
	s.OnAdvance(func(now time.Duration) { ticks = append(ticks, now) })
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Second, func() {})
		s.At(time.Duration(i)*time.Second, func() {}) // same-time pair: one advance
	}
	s.Run()
	if len(ticks) != 5 {
		t.Fatalf("advance ticks = %v, want 5", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("non-monotone advance: %v", ticks)
		}
	}
}

func TestStepsCountsOnlyFiredEvents(t *testing.T) {
	s := New(1)
	e := s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	e.Cancel()
	s.Run()
	if s.Steps() != 1 {
		t.Fatalf("Steps = %d, want 1", s.Steps())
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: for any multiset of schedule times, execution order is the
	// sorted order (stable by insertion for duplicates).
	f := func(raw []uint16) bool {
		s := New(1)
		var fired []time.Duration
		for _, v := range raw {
			d := time.Duration(v) * time.Millisecond
			s.At(d, func() { fired = append(fired, d) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingReflectsQueue(t *testing.T) {
	s := New(1)
	if s.Pending() != 0 {
		t.Fatal("fresh simulator has pending events")
	}
	s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for n := 0; n < b.N; n++ {
		s := New(int64(n))
		count := 0
		var reschedule func()
		reschedule = func() {
			count++
			if count < 100000 {
				s.After(time.Duration(s.Rand().Intn(100))*time.Millisecond, reschedule)
			}
		}
		for i := 0; i < 64; i++ {
			s.At(0, reschedule)
		}
		s.Run()
	}
}

func TestGuardedEventOfDeadOwnerCountsAsStep(t *testing.T) {
	s := New(1)
	alive := true
	ran := 0
	s.AfterGuarded(time.Second, &alive, func() { ran++ })
	s.AfterGuarded(2*time.Second, &alive, func() { ran++ })
	s.At(1500*time.Millisecond, func() { alive = false })
	s.Run()
	if ran != 1 {
		t.Fatalf("guarded callbacks ran %d times, want 1 (the one before the owner died)", ran)
	}
	if s.Steps() != 3 || s.Now() != 2*time.Second {
		t.Fatalf("steps=%d now=%v, want 3 steps ending at 2s", s.Steps(), s.Now())
	}
	e := s.AfterGuarded(time.Second, nil, func() { ran++ })
	s.Run()
	if ran != 2 || e.When() != 3*time.Second {
		t.Fatalf("nil guard: ran=%d when=%v", ran, e.When())
	}
}

func TestPostedEventsInterleaveWithHandles(t *testing.T) {
	s := New(1)
	var order []int
	s.Post(time.Second, func() { order = append(order, 1) })
	e := s.At(time.Second, func() { order = append(order, 2) })
	s.PostAfter(time.Second, func() { order = append(order, 3) })
	s.After(0, func() { order = append(order, 0) })
	e.Cancel()
	s.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 3 {
		t.Fatalf("order = %v, want [0 1 3]", order)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", s.Pending())
	}
}

func TestPostStepAllocatesNothing(t *testing.T) {
	s := New(1)
	count := 0
	fn := func() { count++ }
	// Grow the queue and slot table to a working size first.
	for i := 0; i < 64; i++ {
		s.PostAfter(time.Duration(i)*time.Millisecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.PostAfter(time.Duration(count%64)*time.Millisecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("Post+Step allocates %.1f times, want 0", allocs)
	}
	if count < 1000 {
		t.Fatalf("only %d callbacks ran", count)
	}
}

// BenchmarkSimulatorPostStep measures one handle-free schedule plus one
// executed event against a standing queue of 4096 events, the order of a
// 100-node simulation's backlog.
func BenchmarkSimulatorPostStep(b *testing.B) {
	s := New(1)
	fn := func() {}
	var delays [1024]time.Duration
	for i := range delays {
		delays[i] = time.Duration(s.Rand().Intn(1000)) * time.Millisecond
	}
	for i := 0; i < 4096; i++ {
		s.PostAfter(delays[i%len(delays)], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PostAfter(delays[i%len(delays)], fn)
		s.Step()
	}
}
