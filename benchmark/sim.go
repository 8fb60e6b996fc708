package main

import (
	"fmt"
	"runtime"
	"time"

	"mspastry/internal/harness"
	"mspastry/internal/pastry"
	"mspastry/internal/perfbench"
	"mspastry/internal/telemetry"
)

// simRun is one simulation of a sim workload: its cost and its protocol
// outcome.
type simRun struct {
	wall, cpu time.Duration
	gc        gcStats
	res       harness.Result
	// report is the canonical protocol report plus the lookup delay
	// quantiles: two runs of one seed must produce the same string.
	report         string
	p50, p99, p999 float64 // lookup delay, ms of simulated time
	samples        uint64  // delays behind the quantiles
	simSeconds     float64
}

// simOnce runs one simulation through harness.Run, the entry point
// mspastry-sim uses.
func simOnce(cfg harness.Config) simRun {
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, wall0 := cpuTime(), time.Now()
	res := harness.Run(cfg)
	wall, cpu := time.Since(wall0), cpuTime()-cpu0
	runtime.ReadMemStats(&after)

	// The delay histogram is the one perfbench and mspastry-sim read.
	delay := reg.Histogram("mspastry_lookup_delay_seconds", "", telemetry.DefBuckets)
	r := simRun{
		wall: wall, cpu: cpu, gc: gcDelta(&before, &after), res: res,
		p50:        1000 * delay.Quantile(0.50),
		p99:        1000 * delay.Quantile(0.99),
		p999:       1000 * delay.Quantile(0.999),
		samples:    delay.Count(),
		simSeconds: (cfg.SetupRamp + cfg.Trace.Duration).Seconds(),
	}
	r.report = fmt.Sprintf("%sdelay p50=%v p99=%v\n", res.ReportString(), r.p50, r.p99)
	return r
}

// simSeeds is how many distinct seeds an untraced run simulates. One
// simulation's latency, maintenance rate and CPU per lookup depend on its
// topology and lookup keys, so a run takes the median over several to
// keep its figures steady from one --seed to the next. The counts take
// about 24 s (steady) and 33 s (churn) on a 2-core host.
var simSeeds = map[string]int{"steady": 12, "churn": 4}

// Before every simulation, its configuration is built in setupBatches
// timed batches of setupBatch builds: one build takes well under a
// millisecond, too short to time alone. Timing batches before every
// simulation samples the host over the whole run rather than at its start.
const setupBatches, setupBatch = 5, 20

// runSim runs the perfbench scenario name. Its simulations use seeds
// derived from seed. Untraced, it simulates simSeeds[name] seeds, then
// simulates them again in turn until the budget is spent (at least one
// more). Traced, it simulates the first seed for half the budget untraced
// and half under the CPU profiler, and reports that seed's per-layer
// figures. Either way every repeat of a seed must reproduce the seed's
// first protocol report exactly.
func runSim(name string, seed int64, budget time.Duration, traced bool) (outcome, error) {
	sc, err := perfbench.ByName(name, 1)
	if err != nil {
		return outcome{}, err
	}
	config := func(i int) harness.Config {
		s := sc
		s.Seed = seed*1000 + int64(i)
		return s.Config()
	}

	out := outcome{result: result{Correct: true, Metrics: metrics{}}}
	var firsts, all []simRun
	var setups []float64 // seconds per configuration build
	start := time.Now()
	// simulate sets up and runs seed i and checks a repeat against the
	// seed's first. Set-up builds the topology, the churn trace and the
	// config.
	simulate := func(i int) simRun {
		runtime.GC()
		var cfg harness.Config
		for b := 0; b < setupBatches; b++ {
			t0 := time.Now()
			for j := 0; j < setupBatch; j++ {
				cfg = config(i)
			}
			setups = append(setups, time.Since(t0).Seconds()/setupBatch)
		}
		r := simOnce(cfg)
		all = append(all, r)
		out.Attempted++
		if i == len(firsts) {
			firsts = append(firsts, r)
		} else if r.report != firsts[i].report {
			out.Failed++
			out.fail("%s seed %d: simulation %d of derived seed %d differs from its first in the protocol report",
				name, seed, len(all), seed*1000+int64(i))
		}
		return r
	}

	var plain, profiled []simRun
	var shares profileShares
	if traced {
		for len(plain) < 1 || time.Since(start) < budget/2 {
			plain = append(plain, simulate(0))
		}
		shares, err = withProfile(name, seed, func() {
			for len(profiled) < 1 || time.Since(start) < budget {
				profiled = append(profiled, simulate(0))
			}
		})
		if err != nil {
			return outcome{}, err
		}
	} else {
		// Stop when the next simulation would more likely end after the
		// budget than before it.
		k := simSeeds[name]
		for i := 0; i <= k || time.Since(start)+all[len(all)-1].wall/2 < budget; i++ {
			simulate(i % k)
		}
	}

	m := out.Metrics
	perRun := func(runs []simRun, f func(simRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	if !traced {
		m.set("setup_s", median(setups), "s")
		m.set("cpu_us_per_op", perRun(all, func(r simRun) float64 {
			return 1e6 * ratio(r.cpu.Seconds(), float64(r.res.Totals.Issued))
		}), "us")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		m.set("latency_p50_ms", perRun(firsts, func(r simRun) float64 { return r.p50 }), "ms")
		m.set("maint_msgs_per_node_s", perRun(firsts, func(r simRun) float64 { return r.res.Totals.ControlPerNodeSec }), "1/s")
		m.set("rdp", perRun(firsts, func(r simRun) float64 { return r.res.Totals.RDP }), "ratio")
		med := func(f func(simRun) float64) float64 { return perRun(firsts, f) }
		fmt.Printf("%s: %d seeds, %d simulations; median over seeds: p99 %.4g ms, loss_rate %.4g, incorrect_rate %.4g; median over simulations: sim_speedup %.4g x, cpu_s %.4g s\n",
			name, len(firsts), len(all), med(func(r simRun) float64 { return r.p99 }),
			med(func(r simRun) float64 { return r.res.Totals.LossRate }),
			med(func(r simRun) float64 { return r.res.Totals.IncorrectRate }),
			perRun(all, simSpeedup), perRun(all, simCPU))
		return out, nil
	}

	first := firsts[0]
	t := first.res.Totals
	setLayerZeros(m)
	shares.set(m)
	m.set("sim_speedup", perRun(profiled, simSpeedup), "x")
	m.set("cpu_s", perRun(profiled, simCPU), "s")
	m.set("loss_rate", t.LossRate, "ratio")
	m.set("incorrect_rate", t.IncorrectRate, "ratio")
	m.set("trace.overhead", ratio(perRun(profiled, simCPU), perRun(plain, simCPU))-1, "ratio")

	m.set("eventsim.events", float64(first.res.SimEvents), "count")
	m.set("netmodel.datagrams_per_node_s", t.DatagramsPerNodeSec, "1/s")
	var drops uint64
	for _, d := range first.res.DropsByCause {
		drops += d
	}
	m.set("netmodel.drops", float64(drops), "count")
	// Coalescing is off in the perfbench scenarios, so the yield is all
	// messages over all datagrams.
	m.set("wire.msgs_per_datagram", ratio(t.TotalPerNodeSec, t.DatagramsPerNodeSec), "ratio")

	for cat, key := range pastryCategories {
		m.set("pastry.msgs_per_node_s."+key, t.ByCategory[cat], "1/s")
	}
	c := first.res.Counters
	m.set("pastry.suppressed_share", ratio(float64(c.SuppressedProbes),
		float64(c.SuppressedProbes+c.SentRTProbes+c.SentHeartbeats)), "ratio")
	m.set("pastry.retransmits", float64(c.Retransmits), "count")
	m.set("pastry.false_positives", float64(c.FalsePositives), "count")
	var lookupDrops int
	for _, n := range first.res.DropsByReason {
		lookupDrops += n
	}
	m.set("pastry.lookup_drops", float64(lookupDrops), "count")
	m.set("pastry.lookup_timeouts", float64(first.res.TimeoutLost), "count")
	m.set("pastry.join_ms_p50", float64(t.MedianJoinLatency)/1e6, "ms")
	if n := len(first.res.JoinCDF); n > 0 {
		m.set("pastry.join_ms_max", float64(first.res.JoinCDF[n-1].Latency)/1e6, "ms")
	}
	var shed uint64
	for _, s := range first.res.ShedByLane {
		shed += s
	}
	m.set("overload.shed", float64(shed), "count")

	m.set("gc.alloc_mb", perRun(profiled, func(r simRun) float64 { return r.gc.allocMB }), "MB")
	m.set("gc.allocs", perRun(profiled, func(r simRun) float64 { return r.gc.allocs }), "count")
	m.set("gc.cycles", perRun(profiled, func(r simRun) float64 { return r.gc.cycles }), "count")
	m.set("loadgen.samples", float64(first.samples), "count")
	m.set("latency_p99_ms", first.p99, "ms")
	m.set("loadgen.latency_p999_ms", first.p999, "ms")
	return out, nil
}

// pastryCategories maps the maintenance categories of the paper's
// Figure 4 to their metric suffixes.
var pastryCategories = map[pastry.Category]string{
	pastry.CatJoin:     "join",
	pastry.CatDistance: "distance",
	pastry.CatLeafSet:  "leafset",
	pastry.CatRTProbe:  "rtprobe",
	pastry.CatAck:      "ack",
}

func simSpeedup(r simRun) float64 { return ratio(r.simSeconds, r.wall.Seconds()) }

func simCPU(r simRun) float64 { return r.cpu.Seconds() }
