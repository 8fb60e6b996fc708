package layers

import (
	"math"
	"strings"
	"testing"
)

// raw is a hand-written `go tool pprof -raw` listing: five samples whose
// stacks exercise each attribution rule.
const raw = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          1   10000000: 1 2 3
          2   20000000: 4 2 3
          1   10000000: 5 6
          3   30000000: 7 8
          1   10000000: 9
          2   20000000: 10
Locations
     1: 0x1 M=1 runtime.memmove runtime/memmove.s:1:0 s=1
     2: 0x2 M=1 mspastry/internal/peer.(*Registry).Sweep mspastry/internal/peer/peer.go:1:0 s=1
             mspastry/internal/pastry.(*Node).onTick mspastry/internal/pastry/node.go:1:0 s=1
     3: 0x3 M=1 mspastry/internal/eventsim.(*Simulator).Step mspastry/internal/eventsim/eventsim.go:1:0 s=1
     4: 0x4 M=1 runtime.mallocgc runtime/malloc.go:1:0 s=1
     5: 0x5 M=1 internal/poll.(*FD).WriteTo internal/poll/fd_unix.go:1:0 s=1
     6: 0x6 M=1 mspastry/internal/transport.(*udpEnv).Send mspastry/internal/transport/udp.go:1:0 s=1
     7: 0x7 M=1 mspastry/internal/wire.AppendFrame mspastry/internal/wire/wire.go:1:0 s=1
     8: 0x8 M=1 mspastry/internal/pastry.(*Node).Receive mspastry/internal/pastry/node.go:1:0 s=1
     9: 0x9 M=1 runtime.findRunnable runtime/proc.go:1:0 s=1
    10: 0xa M=1 main.runLoad benchmark/livekv.go:1:0 s=1
Mappings
1: 0x0/0x0/0x0 bin/bench 00 [FN]
`

func TestParseAttributesEachRule(t *testing.T) {
	sh, err := Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Samples != 6 {
		t.Fatalf("samples = %d, want 6", sh.Samples)
	}
	want := map[string]float64{
		// memmove is skipped; the inlined peer frame is innermost.
		"peer": 0.1,
		// malloc goes to gc even when called from pastry code.
		"gc":      0.2,
		"syscall": 0.1,
		"wire":    0.3,
		"sched":   0.1,
		"loadgen": 0.2,
	}
	for layer, w := range want {
		if got := sh.Self[layer]; math.Abs(got-w) > 1e-9 {
			t.Errorf("Self[%s] = %v, want %v", layer, got, w)
		}
	}
	if len(sh.Self) != len(want) {
		t.Errorf("Self = %v, want only %v", sh.Self, want)
	}
	if got := sh.Cum["pastry.tick"]; math.Abs(got-0.3) > 1e-9 {
		t.Errorf("Cum[pastry.tick] = %v, want 0.3", got)
	}
	if got := sh.Cum["pastry.receive"]; math.Abs(got-0.3) > 1e-9 {
		t.Errorf("Cum[pastry.receive] = %v, want 0.3", got)
	}
}

func TestClassifyFallbacks(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "syscall"},
		{[]string{"runtime.ready", "runtime.goready"}, "sched"},
		{[]string{"sort.Slice", "runtime.goexit"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := Classify(c.stack); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestFoldFixture folds a committed CPU profile of the perfbench steady
// scenario through `go tool pprof -raw`.
func TestFoldFixture(t *testing.T) {
	sh, err := Fold("testdata/steady.pprof")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Samples < 100 {
		t.Fatalf("samples = %d, want the fixture's 164", sh.Samples)
	}
	var sum float64
	for _, v := range sh.Self {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
	if other := sh.Self["other"]; other > 0.1 {
		t.Errorf("other = %v: named layers cover under 90%% of samples", other)
	}
	for _, layer := range []string{"pastry", "peer", "eventsim", "gc"} {
		if sh.Self[layer] == 0 {
			t.Errorf("layer %s has no samples in a steady-state simulation", layer)
		}
	}
	tick, recv := sh.Cum["pastry.tick"], sh.Cum["pastry.receive"]
	if tick <= 0 || tick > 1 || recv <= 0 || recv > 1 {
		t.Errorf("cumulative tick %v, receive %v out of range", tick, recv)
	}
}
