// Package layers folds a Go CPU profile into per-layer CPU shares. It reads
// the profile through `go tool pprof -raw`, so it needs only the Go
// toolchain.
//
// Each sample goes to one layer, found by walking its stack from the
// innermost frame outwards and stopping at the first frame that is
//   - a runtime allocation or garbage-collection function: layer "gc";
//   - a net, internal/poll or syscall function, or a runtime system call
//     wrapper: layer "syscall";
//   - in package mspastry/internal/<pkg>: layer "<pkg>";
//   - in the benchmark's own main package: layer "loadgen".
//
// Other runtime frames (memmove, map access, ...) are skipped, so their
// cost goes to the caller's layer. A sample with no such frame goes to
// "sched" when its stack is all runtime (scheduler, timers, sysmon) and to
// "other" otherwise. Cumulative shares count every sample with the given
// function anywhere on its stack.
package layers

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// Cumulative names the functions whose cumulative share is reported,
// keyed by the reported layer name.
var Cumulative = map[string]string{
	"pastry.tick":    "mspastry/internal/pastry.(*Node).onTick",
	"pastry.receive": "mspastry/internal/pastry.(*Node).Receive",
}

// Shares is a folded profile.
type Shares struct {
	// Self maps a layer to its share of all sampled CPU.
	Self map[string]float64
	// Cum maps a Cumulative key to its share of all sampled CPU.
	Cum map[string]float64
	// Samples is the number of samples in the profile.
	Samples int64
}

// Fold runs `go tool pprof -raw` on the CPU profile at path and folds it.
func Fold(path string) (Shares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return Shares{}, fmt.Errorf("go tool pprof -raw %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return Parse(bytes.NewReader(out))
}

// Parse folds the text `go tool pprof -raw` prints for a CPU profile.
func Parse(r io.Reader) (Shares, error) {
	type sample struct {
		weight int64
		locs   []int
	}
	var (
		samples []sample
		// frames maps a location id to its functions, innermost first
		// (an inlined call contributes several).
		frames  = map[int][]string{}
		section string
		lastLoc = -1
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			continue
		case !strings.HasPrefix(line, " "):
			// Column 0 holds section headers and header fields such as
			// "samples/count cpu/nanoseconds"; only headers switch.
			switch h := strings.TrimSuffix(trimmed, ":"); h {
			case "Samples", "Locations", "Mappings":
				section = h
				lastLoc = -1
			}
			continue
		}
		switch section {
		case "Samples":
			// "<count> <nanoseconds>: <loc> <loc> ..."
			head, tail, ok := strings.Cut(trimmed, ":")
			if !ok {
				continue
			}
			vals := strings.Fields(head)
			if len(vals) < 2 {
				continue
			}
			w, err := strconv.ParseInt(vals[len(vals)-1], 10, 64)
			if err != nil {
				return Shares{}, fmt.Errorf("layers: bad sample %q", trimmed)
			}
			var locs []int
			for _, f := range strings.Fields(tail) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return Shares{}, fmt.Errorf("layers: bad sample %q", trimmed)
				}
				locs = append(locs, id)
			}
			samples = append(samples, sample{w, locs})
		case "Locations":
			// "<id>: 0x<addr> M=<m> <func> <file>:<line> s=<n>" and, for
			// inlined callers, continuation lines "<func> <file>:<line> s=<n>".
			fields := strings.Fields(trimmed)
			if strings.HasSuffix(fields[0], ":") {
				id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
				if err != nil {
					return Shares{}, fmt.Errorf("layers: bad location %q", trimmed)
				}
				lastLoc = id
				frames[id] = nil
				if len(fields) >= 4 {
					frames[id] = append(frames[id], fields[3])
				}
			} else if lastLoc >= 0 {
				frames[lastLoc] = append(frames[lastLoc], fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Shares{}, fmt.Errorf("layers: read profile: %w", err)
	}

	sh := Shares{Self: map[string]float64{}, Cum: map[string]float64{}, Samples: int64(len(samples))}
	var total float64
	for _, s := range samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, frames[id]...)
		}
		w := float64(s.weight)
		total += w
		sh.Self[Classify(stack)] += w
		for name, fn := range Cumulative {
			for _, f := range stack {
				if f == fn {
					sh.Cum[name] += w
					break
				}
			}
		}
	}
	if total == 0 {
		return sh, fmt.Errorf("layers: profile has no samples")
	}
	for k := range sh.Self {
		sh.Self[k] /= total
	}
	for k := range sh.Cum {
		sh.Cum[k] /= total
	}
	return sh, nil
}

const internalPrefix = "mspastry/internal/"

// Classify returns the layer of one sample's stack, innermost frame first.
func Classify(stack []string) string {
	allRuntime := true
	for _, fn := range stack {
		switch {
		case isGC(fn):
			return "gc"
		case isSyscall(fn):
			return "syscall"
		case strings.HasPrefix(fn, internalPrefix):
			pkg := strings.TrimPrefix(fn, internalPrefix)
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		case strings.HasPrefix(fn, "main."):
			return "loadgen"
		case !strings.HasPrefix(fn, "runtime."):
			allRuntime = false
		}
	}
	if allRuntime && len(stack) > 0 {
		return "sched"
	}
	return "other"
}

var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject", "runtime.findObject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.(*mspan).", "runtime.(*mheap).", "runtime.(*mcache).",
	"runtime.(*mcentral).", "runtime.(*gcWork).", "runtime.(*gcControllerState).",
	"runtime.(*sweepLocked).", "runtime.(*pageAlloc).", "runtime.(*scavengerState).",
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

var syscallPrefixes = []string{
	"syscall.", "internal/poll.", "net.", "internal/runtime/syscall.", "runtime/internal/syscall.",
	"runtime.netpoll", "runtime.epollwait", "runtime.futex", "runtime.usleep", "runtime.osyield",
}

func isSyscall(fn string) bool {
	if fn == "runtime.read" || fn == "runtime.write1" {
		return true
	}
	for _, p := range syscallPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
