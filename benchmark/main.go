// Command mspastry-benchmark is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget, checks the program's outputs and
// prints its metrics, each by name with its unit, ending with one JSON
// object on the last line of standard output:
//
//	bash benchmark/run.sh --workload steady|churn|live-kv --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs once untraced and once under a CPU profile, and the
// metrics are the per-layer ones. NOTES.md explains the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics an untraced run prints, in the
// order of BENCHMARK.json.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"cpu_us_per_op", "us"}, {"max_rss_mb", "MB"},
	{"latency_p50_ms", "ms"}, {"maint_msgs_per_node_s", "1/s"}, {"rdp", "ratio"},
}

// checkSet reports how m departs from exactly the metrics in specs.
func (m metrics) checkSet(specs []metricSpec) error {
	for _, s := range specs {
		if got, ok := m[s.name]; !ok || got.Unit != s.unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", s.name, got, s.unit)
		}
	}
	if len(m) != len(specs) {
		return fmt.Errorf("%d metrics, want %d", len(m), len(specs))
	}
	return nil
}

// metrics maps metric names to values; set keeps values JSON-safe.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what a workload reports: the result plus the reasons it is
// incorrect, if any.
type outcome struct {
	result
	problems []string
}

func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload name: steady, churn or live-kv")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measurement budget in wall-clock seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mspastry-benchmark: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// Pin the scheduler width to the host, not to a container quota.
	runtime.GOMAXPROCS(runtime.NumCPU())

	budget := time.Duration(*seconds) * time.Second
	var (
		out outcome
		err error
	)
	switch *workload {
	case "steady", "churn":
		out, err = runSim(*workload, *seed, budget, *trace == 1)
	case "live-kv":
		out, err = runLiveKV(*seed, budget, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want steady, churn or live-kv)", *workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mspastry-benchmark: %v\n", err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayerSpecs()
	}
	if err := out.Metrics.checkSet(want); err != nil {
		fmt.Fprintf(os.Stderr, "mspastry-benchmark: %s reported the wrong metric set: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "mspastry-benchmark: CHECK FAILED: %s\n", p)
	}

	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mspastry-benchmark: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// cpuTime is the process's user plus system CPU time so far, less the
// garbage-collector mark work the runtime has done on otherwise idle
// cores. That idle work expands to fill whatever cores the program leaves
// free, so it varies with scheduling rather than with the program; the
// runtime documents subtracting it to get the compulsory GC cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	idle := []rtmetrics.Sample{{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"}}
	rtmetrics.Read(idle)
	var idleNs float64
	if idle[0].Value.Kind() == rtmetrics.KindFloat64 {
		idleNs = idle[0].Value.Float64() * 1e9
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano() - int64(idleNs))
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ratio divides, returning 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gcStats is the allocation and collection work between two MemStats.
type gcStats struct {
	allocMB float64
	allocs  float64
	cycles  float64
}

func gcDelta(before, after *runtime.MemStats) gcStats {
	return gcStats{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		allocs:  float64(after.Mallocs - before.Mallocs),
		cycles:  float64(after.NumGC - before.NumGC),
	}
}
