package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"mspastry/benchmark/layers"
)

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run prints all of them on every workload; a
// layer the workload never runs reads 0.
var perLayer = []metricSpec{
	{"latency_p99_ms", "ms"}, {"sim_speedup", "x"}, {"cpu_s", "s"},
	{"loss_rate", "ratio"}, {"incorrect_rate", "ratio"},
	{"eventsim.events", "count"},
	{"netmodel.datagrams_per_node_s", "1/s"}, {"netmodel.drops", "count"},
	{"wire.msgs_per_datagram", "ratio"}, {"wire.flush_hold_ms_p50", "ms"}, {"wire.flush_hold_ms_p99", "ms"},
	{"pastry.tick.cpu_share", "ratio"}, {"pastry.receive.cpu_share", "ratio"},
	{"pastry.msgs_per_node_s.join", "1/s"}, {"pastry.msgs_per_node_s.distance", "1/s"},
	{"pastry.msgs_per_node_s.leafset", "1/s"}, {"pastry.msgs_per_node_s.rtprobe", "1/s"},
	{"pastry.msgs_per_node_s.ack", "1/s"}, {"pastry.suppressed_share", "ratio"},
	{"pastry.retransmits", "count"}, {"pastry.false_positives", "count"},
	{"pastry.lookup_drops", "count"}, {"pastry.lookup_timeouts", "count"},
	{"pastry.join_ms_p50", "ms"}, {"pastry.join_ms_max", "ms"},
	{"overload.shed", "count"},
	{"transport.loop_wait_ms_p50", "ms"}, {"transport.loop_wait_ms_p99", "ms"},
	{"transport.datagrams_per_op", "ratio"}, {"transport.bytes_per_op", "B"},
	{"transport.rcvbuf_drops", "count"}, {"transport.send_errors", "count"},
	{"transport.decode_errors", "count"},
	{"dht.get_ms_p50", "ms"}, {"dht.get_ms_p99", "ms"}, {"dht.put_ms_p50", "ms"}, {"dht.put_ms_p99", "ms"},
	{"dht.retries", "count"},
	{"hotspot.hit_ratio", "ratio"}, {"hotspot.stale_rejected", "count"},
	{"gc.alloc_mb", "MB"}, {"gc.allocs", "count"}, {"gc.cycles", "count"},
	{"loadgen.late_ms_max", "ms"}, {"loadgen.late_ms_p99", "ms"}, {"loadgen.samples", "count"},
	{"loadgen.latency_p999_ms", "ms"}, {"loadgen.slow_ops", "count"},
	{"trace.overhead", "ratio"}, {"trace.profile_samples", "count"},
}

// cpuLayers are the layers a profile is folded into (see package layers):
// the repository's packages that the workloads run, then the runtime and
// the benchmark itself. "other" takes every sample none of them claims.
var cpuLayers = []string{
	"eventsim", "netmodel", "wire", "pastry", "peer", "overload", "stats", "telemetry",
	"harness", "transport", "dht", "store", "hotspot", "id", "topology", "trace", "perfbench",
	"gc", "syscall", "sched", "loadgen", "other",
}

// perLayerSpecs is every per-layer metric: perLayer, then each cpuLayers
// entry's CPU share.
func perLayerSpecs() []metricSpec {
	specs := append([]metricSpec(nil), perLayer...)
	for _, l := range cpuLayers {
		specs = append(specs, metricSpec{l + ".cpu_share", "ratio"})
	}
	return specs
}

// setLayerZeros presets every per-layer metric to 0.
func setLayerZeros(m metrics) {
	for _, l := range perLayerSpecs() {
		m.set(l.name, 0, l.unit)
	}
}

// profileShares is a traced phase's folded CPU profile.
type profileShares layers.Shares

// withProfile runs fn under the CPU profiler and folds the profile. The
// profile is written beside the benchmark binary and removed afterwards.
func withProfile(workload string, seed int64, fn func()) (profileShares, error) {
	exe, err := os.Executable()
	if err != nil {
		return profileShares{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(exe), fmt.Sprintf("cpu-%s-%d-*.pprof", workload, seed))
	if err != nil {
		return profileShares{}, fmt.Errorf("create profile: %w", err)
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return profileShares{}, fmt.Errorf("start profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return profileShares{}, fmt.Errorf("write profile: %w", err)
	}
	sh, err := layers.Fold(f.Name())
	return profileShares(sh), err
}

// set records each layer's self share, the cumulative shares and the
// sample count. Samples of a layer outside cpuLayers count as "other".
func (s profileShares) set(m metrics) {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	other := s.Self["other"]
	for l, v := range s.Self {
		if known[l] {
			m.set(l+".cpu_share", v, "ratio")
		} else if l != "other" {
			other += v
		}
	}
	m.set("other.cpu_share", other, "ratio")
	for name := range layers.Cumulative {
		m.set(name+".cpu_share", s.Cum[name], "ratio")
	}
	m.set("trace.profile_samples", float64(s.Samples), "count")
}
