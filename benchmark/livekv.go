package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/harness"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
	"mspastry/internal/telemetry"
	"mspastry/internal/transport"
)

// The live-kv workload: an in-process overlay of real UDP transports on
// the loopback interface, composed as cmd/mspastry-node composes one node,
// serving a replicated key-value store to an open-loop client.
const (
	// kvNodes exceeds the leaf-set size L=32, so routes take more than
	// one hop.
	kvNodes = 64
	// kvCoalesce is the control-message coalescing window mspastry-node
	// ships with.
	kvCoalesce     = 2 * time.Millisecond
	kvCacheEntries = 256
	kvKeys         = 1024
	kvZipfS        = 1.0
	kvValueSize    = 64
	kvRate         = 2000 // ops per second, open loop
	kvGetShare     = 0.9
	// kvSetups is how many overlays an untraced run builds, each timed
	// and then loaded for an equal share of the budget.
	kvSetups = 3
	// kvJoinTimeout bounds one node's join. Joins run one at a time, so
	// a join that takes this long is the overlay-formation stall.
	kvJoinTimeout = 60 * time.Second
	// kvDeadline is how long after its due time an op may take before it
	// counts as lost. It covers one of the store's 10 s request timeouts.
	kvDeadline = 12 * time.Second
	// kvSlow is the latency above which an op counts in loadgen.slow_ops.
	kvSlow = time.Second
)

// kvOverlay is one formed overlay with its stores.
type kvOverlay struct {
	trs    []*transport.UDP
	stores []*dht.Store
	reg    *telemetry.Registry
	keys   *harness.Zipf
	joinMs []float64
}

// activations reports each node's join completion to the set-up loop.
type activations chan *pastry.Node

func (a activations) Activated(n *pastry.Node, _ time.Duration)                   { a <- n }
func (activations) Delivered(*pastry.Node, *pastry.Lookup)                        {}
func (activations) LookupDropped(*pastry.Node, *pastry.Lookup, pastry.DropReason) {}

func (ov *kvOverlay) close() {
	for _, tr := range ov.trs {
		tr.Close()
	}
}

// kvValue is the value written for key: it names the key, so a Get can
// check that it got an answer for the key it asked about.
func kvValue(key id.ID, version int) []byte {
	v := []byte(fmt.Sprintf("%s/%d/", key, version))
	for len(v) < kvValueSize {
		v = append(v, '.')
	}
	return v
}

func kvValueKey(v []byte) string {
	k, _, _ := bytes.Cut(v, []byte("/"))
	return string(k)
}

// buildOverlay listens on kvNodes loopback sockets, joins the nodes one
// at a time through the first, and preloads every key. It returns the
// overlay and how long that took.
func buildOverlay(seed int64) (*kvOverlay, time.Duration, error) {
	start := time.Now()
	reg := telemetry.NewRegistry()
	// Each node activates once, so the buffer holds every send.
	act := make(activations, kvNodes)
	obs := telemetry.NewOverlay(reg, nil, telemetry.OverlayOptions{Inner: act})
	sink := telemetry.NewTransportMetrics(reg)
	ov := &kvOverlay{reg: reg, keys: harness.NewZipf(seed, kvKeys, kvZipfS)}
	dhtCfg := dht.DefaultConfig()
	dhtCfg.CacheEntries = kvCacheEntries
	for i := 0; i < kvNodes; i++ {
		tr, err := transport.Listen("127.0.0.1:0", seed*kvNodes+int64(i))
		if err != nil {
			ov.close()
			return nil, 0, err
		}
		ov.trs = append(ov.trs, tr)
		tr.SetCoalesceWindow(kvCoalesce)
		tr.SetMetricsSink(sink)
		if _, err := tr.CreateNode(id.ID{}, pastry.DefaultConfig(), obs); err != nil {
			ov.close()
			return nil, 0, err
		}
		var st *dht.Store
		tr.DoSync(func(n *pastry.Node) { st = dht.New(n, tr.Env(), dhtCfg) })
		ov.stores = append(ov.stores, st)
	}

	var first pastry.NodeRef
	for i, tr := range ov.trs {
		t0 := time.Now()
		var self *pastry.Node
		tr.DoSync(func(n *pastry.Node) {
			self = n
			if i == 0 {
				n.Bootstrap()
				first = n.Ref()
			} else {
				n.Join(first)
			}
		})
		select {
		case n := <-act:
			if n != self {
				ov.close()
				return nil, 0, fmt.Errorf("live-kv: another node activated while node %d was joining", i)
			}
		case <-time.After(kvJoinTimeout):
			ov.close()
			return nil, 0, fmt.Errorf("live-kv: node %d did not finish joining within %v", i, kvJoinTimeout)
		}
		if i > 0 {
			ov.joinMs = append(ov.joinMs, float64(time.Since(t0).Microseconds())/1000)
		}
	}

	// Preload every key, 64 puts in flight at a time.
	sem := make(chan struct{}, 64)
	errs := make(chan error, kvKeys)
	for k := 0; k < kvKeys; k++ {
		sem <- struct{}{}
		key, node := ov.keys.Key(k), k%kvNodes
		ov.trs[node].Do(func(*pastry.Node) {
			ov.stores[node].Put(key, kvValue(key, 0), func(err error) {
				errs <- err
				<-sem
			})
		})
	}
	for k := 0; k < kvKeys; k++ {
		if err := <-errs; err != nil {
			ov.close()
			return nil, 0, fmt.Errorf("live-kv: preload put: %w", err)
		}
	}
	return ov, time.Since(start), nil
}

// kvOp is one client operation. The generator fills the first block
// before handing the op to a node's event loop; the rest is written under
// loadRun.mu by the loop.
type kvOp struct {
	due, issued time.Time
	get         bool
	key         id.ID

	started, done time.Time
	finished      bool
	err           error
	wrong         bool
}

// loadRun is one measured window of open-loop load.
type loadRun struct {
	mu  sync.Mutex
	ops []*kvOp

	window, cpu time.Duration
	gc          gcStats
	// Deltas of the overlay's own counters: sends over the window, the
	// rest over the window and the drain.
	dhtC          dht.Counters
	nodeC         pastry.Counters
	controlSent   map[pastry.Category]float64
	lookupDrops   float64
	shed          uint64
	rcvbufDrops   int64
	win           *telemetry.Registry
	datagramsSent float64
	bytesSent     float64
}

// runLoad drives the overlay for d at kvRate ops/s from one generator
// goroutine, then waits for ops in flight until the last one's deadline.
func runLoad(ov *kvOverlay, seed int64, d time.Duration) *loadRun {
	lr := &loadRun{win: telemetry.NewRegistry()}
	// The transport sink is swapped for one on a fresh registry, so its
	// histograms (flush hold, batch size) cover this window only.
	sink := telemetry.NewTransportMetrics(lr.win)
	for _, tr := range ov.trs {
		tr.SetMetricsSink(sink)
	}
	rng := rand.New(rand.NewSource(seed))
	dht0, node0, shed0 := ov.counters()
	sent0, drops0 := ov.sent()
	rcv0 := udpRcvbufErrors()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	interval := time.Second / kvRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		op := &kvOp{due: due, get: rng.Float64() < kvGetShare, key: ov.keys.Next(rng)}
		node := rng.Intn(kvNodes)
		lr.mu.Lock()
		lr.ops = append(lr.ops, op)
		lr.mu.Unlock()
		st, version := ov.stores[node], i+1
		op.issued = time.Now()
		ov.trs[node].Do(func(*pastry.Node) {
			started := time.Now()
			if op.get {
				st.Get(op.key, func(v []byte, err error) {
					lr.finish(op, started, err, err == nil && kvValueKey(v) != op.key.String())
				})
			} else {
				st.Put(op.key, kvValue(op.key, version), func(err error) { lr.finish(op, started, err, false) })
			}
		})
	}
	lr.window = time.Since(start)
	lr.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	lr.gc = gcDelta(&m0, &m1)
	lr.datagramsSent = float64(lr.win.Counter("mspastry_transport_datagrams_sent_total", "").Value())
	lr.bytesSent = float64(lr.win.Counter("mspastry_transport_bytes_sent_total", "").Value())
	sent1, drops1 := ov.sent()
	lr.controlSent = map[pastry.Category]float64{}
	for cat, n := range sent1 {
		lr.controlSent[cat] = n - sent0[cat]
	}
	lr.lookupDrops = drops1 - drops0

	for time.Now().Before(lr.lastDeadline()) {
		time.Sleep(10 * time.Millisecond)
	}
	dht1, node1, shed1 := ov.counters()
	lr.rcvbufDrops = udpRcvbufErrors() - rcv0
	lr.dhtC = subDHT(dht1, dht0)
	lr.nodeC = subNode(node1, node0)
	lr.shed = shed1 - shed0
	return lr
}

// lastDeadline is the latest deadline of the ops still in flight (the
// zero time when none is).
func (lr *loadRun) lastDeadline() time.Time {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	var last time.Time
	for _, op := range lr.ops {
		if !op.finished && op.due.Add(kvDeadline).After(last) {
			last = op.due.Add(kvDeadline)
		}
	}
	return last
}

func (lr *loadRun) finish(op *kvOp, started time.Time, err error, wrong bool) {
	now := time.Now()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if op.finished {
		return
	}
	op.started, op.done, op.finished, op.err, op.wrong = started, now, true, err, wrong
}

// counters sums every node's and store's counters, read on its event
// loop, and the transports' inbound sheds.
func (ov *kvOverlay) counters() (dht.Counters, pastry.Counters, uint64) {
	var dc dht.Counters
	var nc pastry.Counters
	var shed uint64
	for i, tr := range ov.trs {
		st := ov.stores[i]
		tr.DoSync(func(n *pastry.Node) {
			dc = addDHT(dc, st.Counters())
			nc = addNode(nc, n.Stats())
		})
		s, _ := tr.OverloadStats()
		for _, x := range s {
			shed += x
		}
	}
	return dc, nc, shed
}

// sent reads the registry's protocol sends by category and lookup drops.
func (ov *kvOverlay) sent() (map[pastry.Category]float64, float64) {
	sent := map[pastry.Category]float64{}
	var drops float64
	for _, mv := range ov.reg.Snapshot() {
		switch mv.Name {
		case "mspastry_messages_sent_total":
			for c := pastry.Category(1); int(c) < pastry.CategoryCount; c++ {
				if c.String() == mv.Label {
					sent[c] += mv.Value
				}
			}
		case "mspastry_lookups_dropped_total":
			drops += mv.Value
		}
	}
	return sent, drops
}

func addDHT(a, b dht.Counters) dht.Counters {
	a.Gets += b.Gets
	a.Retries += b.Retries
	a.CacheHitsLocal += b.CacheHitsLocal
	a.CacheHitsRemote += b.CacheHitsRemote
	a.CacheStaleRejected += b.CacheStaleRejected
	return a
}

func subDHT(a, b dht.Counters) dht.Counters {
	a.Gets -= b.Gets
	a.Retries -= b.Retries
	a.CacheHitsLocal -= b.CacheHitsLocal
	a.CacheHitsRemote -= b.CacheHitsRemote
	a.CacheStaleRejected -= b.CacheStaleRejected
	return a
}

func addNode(a, b pastry.Counters) pastry.Counters {
	a.SuppressedProbes += b.SuppressedProbes
	a.SentRTProbes += b.SentRTProbes
	a.SentHeartbeats += b.SentHeartbeats
	a.Retransmits += b.Retransmits
	a.FalsePositives += b.FalsePositives
	return a
}

func subNode(a, b pastry.Counters) pastry.Counters {
	a.SuppressedProbes -= b.SuppressedProbes
	a.SentRTProbes -= b.SentRTProbes
	a.SentHeartbeats -= b.SentHeartbeats
	a.Retransmits -= b.Retransmits
	a.FalsePositives -= b.FalsePositives
	return a
}

// udpRcvbufErrors reads the host-wide count of datagrams the kernel
// dropped for want of socket receive-buffer space (-1 if unavailable).
func udpRcvbufErrors() int64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return -1
	}
	defer f.Close()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fields) {
				n, err := strconv.ParseInt(fields[i], 10, 64)
				if err != nil {
					return -1
				}
				return n
			}
		}
	}
	return -1
}

// opStats summarises a window's ops.
type opStats struct {
	attempted, lost, incorrect, slow int
	latency, late, loopWait          []float64 // ms, ascending
	getMs, putMs                     []float64 // ms, ascending
}

func (lr *loadRun) stats() opStats {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	end := time.Now()
	var s opStats
	for _, op := range lr.ops {
		s.attempted++
		s.late = append(s.late, ms(op.issued.Sub(op.due)))
		done := op.done
		if !op.finished {
			done = end
		}
		switch {
		case !op.finished || done.Sub(op.due) > kvDeadline:
			s.lost++
		case op.err != nil:
			s.lost++
		case op.wrong:
			s.incorrect++
		}
		lat := done.Sub(op.due)
		s.latency = append(s.latency, ms(lat))
		if lat > kvSlow {
			s.slow++
		}
		if op.finished {
			s.loopWait = append(s.loopWait, ms(op.started.Sub(op.issued)))
			if op.get {
				s.getMs = append(s.getMs, ms(op.done.Sub(op.started)))
			} else {
				s.putMs = append(s.putMs, ms(op.done.Sub(op.started)))
			}
		}
	}
	for _, xs := range [][]float64{s.latency, s.late, s.loopWait, s.getMs, s.putMs} {
		sort.Float64s(xs)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runLiveKV runs the live-kv workload. Untraced, it builds kvSetups
// overlays one after another, timing each set-up and loading each for an
// equal share of the budget, and reports the median window. Traced, it
// builds one overlay, loads it for half the budget untraced and half under
// the CPU profiler, and reports the per-layer metrics of the profiled half.
func runLiveKV(seed int64, budget time.Duration, traced bool) (outcome, error) {
	fmt.Println("live-kv: 64 in-process UDP nodes; all traffic crosses the loopback interface, not a real link")
	out := outcome{result: result{Correct: true, Metrics: metrics{}}}
	m := out.Metrics
	check := func(lr *loadRun) opStats {
		s := lr.stats()
		out.Attempted += s.attempted
		out.Failed += s.lost + s.incorrect
		if s.incorrect > 0 {
			out.fail("live-kv seed %d: %d Gets returned a value for another key", seed, s.incorrect)
		}
		return s
	}

	if !traced {
		// Each overlay serves one window; the run reports the median
		// window, so one window caught in a retransmission storm (see
		// NOTES.md) does not decide the run's figures.
		var setupS, cpuPerOp, p50, maint []float64
		for i := int64(0); i < kvSetups; i++ {
			ov, took, err := buildOverlay(seed*kvSetups + i)
			if err != nil {
				return outcome{}, err
			}
			lr := runLoad(ov, seed*kvSetups+i, budget/kvSetups)
			ov.close()
			// Hand the closed overlay's memory back, so the next one's
			// peak does not stack on it.
			debug.FreeOSMemory()
			s := check(lr)
			setupS = append(setupS, took.Seconds())
			cpuPerOp = append(cpuPerOp, ratio(float64(lr.cpu.Microseconds()), float64(s.attempted)))
			p50 = append(p50, quantile(s.latency, 0.5))
			maint = append(maint, lr.controlPerNodeSec())
			fmt.Printf("live-kv window %d: setup %.3g s (join max %.3g ms), %.4g us/op, latency p50 %.4g ms p99 %.4g ms p99.9 %.4g ms, %d ops, %d lost, %d incorrect, %d over %v, maint %.4g /node/s, rcvbuf drops %d, dht retries %d\n",
				i+1, took.Seconds(), maxOf(ov.joinMs), cpuPerOp[i], p50[i], quantile(s.latency, 0.99), quantile(s.latency, 0.999),
				s.attempted, s.lost, s.incorrect, s.slow, kvSlow, maint[i], lr.rcvbufDrops, lr.dhtC.Retries)
		}
		m.set("setup_s", median(setupS), "s")
		m.set("cpu_us_per_op", median(cpuPerOp), "us")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		m.set("latency_p50_ms", median(p50), "ms")
		m.set("maint_msgs_per_node_s", median(maint), "1/s")
		// Loopback has no underlying network path to compare a route
		// with, so the relative delay penalty has no meaning here.
		m.set("rdp", 0, "ratio")
		return out, nil
	}

	ov, _, err := buildOverlay(seed * kvSetups)
	if err != nil {
		return outcome{}, err
	}
	defer ov.close()
	plain := runLoad(ov, seed*kvSetups, budget/2)
	check(plain)
	var lr *loadRun
	shares, err := withProfile("live-kv", seed, func() { lr = runLoad(ov, seed*kvSetups+1, budget/2) })
	if err != nil {
		return outcome{}, err
	}
	s := check(lr)
	setLayerZeros(m)
	shares.set(m)
	n := float64(s.attempted)
	m.set("cpu_s", lr.cpu.Seconds(), "s")
	m.set("loss_rate", ratio(float64(s.lost), n), "ratio")
	m.set("incorrect_rate", ratio(float64(s.incorrect), n), "ratio")
	plainOps := float64(len(plain.ops))
	m.set("trace.overhead", ratio(ratio(lr.cpu.Seconds(), n), ratio(plain.cpu.Seconds(), plainOps))-1, "ratio")

	batch := lr.win.Histogram("mspastry_transport_msgs_per_datagram", "", telemetry.BatchBuckets)
	hold := lr.win.Histogram("mspastry_transport_flush_hold_seconds", "", telemetry.HoldBuckets)
	m.set("wire.msgs_per_datagram", ratio(batch.Sum(), float64(batch.Count())), "ratio")
	m.set("wire.flush_hold_ms_p50", 1000*hold.Quantile(0.5), "ms")
	m.set("wire.flush_hold_ms_p99", 1000*hold.Quantile(0.99), "ms")

	nodeSec := float64(kvNodes) * lr.window.Seconds()
	for cat, key := range pastryCategories {
		m.set("pastry.msgs_per_node_s."+key, ratio(lr.controlSent[cat], nodeSec), "1/s")
	}
	c := lr.nodeC
	m.set("pastry.suppressed_share", ratio(float64(c.SuppressedProbes),
		float64(c.SuppressedProbes+c.SentRTProbes+c.SentHeartbeats)), "ratio")
	m.set("pastry.retransmits", float64(c.Retransmits), "count")
	m.set("pastry.false_positives", float64(c.FalsePositives), "count")
	m.set("pastry.lookup_drops", lr.lookupDrops, "count")
	joins := append([]float64(nil), ov.joinMs...)
	sort.Float64s(joins)
	m.set("pastry.join_ms_p50", quantile(joins, 0.5), "ms")
	m.set("pastry.join_ms_max", maxOf(joins), "ms")
	m.set("overload.shed", float64(lr.shed), "count")

	m.set("transport.loop_wait_ms_p50", quantile(s.loopWait, 0.5), "ms")
	m.set("transport.loop_wait_ms_p99", quantile(s.loopWait, 0.99), "ms")
	m.set("transport.datagrams_per_op", ratio(lr.datagramsSent, n), "ratio")
	m.set("transport.bytes_per_op", ratio(lr.bytesSent, n), "B")
	m.set("transport.rcvbuf_drops", float64(lr.rcvbufDrops), "count")
	m.set("transport.send_errors", float64(lr.win.Counter("mspastry_transport_send_errors_total", "").Value()), "count")
	m.set("transport.decode_errors", float64(lr.win.Counter("mspastry_transport_decode_errors_total", "").Value()), "count")

	m.set("dht.get_ms_p50", quantile(s.getMs, 0.5), "ms")
	m.set("dht.get_ms_p99", quantile(s.getMs, 0.99), "ms")
	m.set("dht.put_ms_p50", quantile(s.putMs, 0.5), "ms")
	m.set("dht.put_ms_p99", quantile(s.putMs, 0.99), "ms")
	m.set("dht.retries", float64(lr.dhtC.Retries), "count")
	m.set("hotspot.hit_ratio", ratio(float64(lr.dhtC.CacheHitsLocal+lr.dhtC.CacheHitsRemote), float64(lr.dhtC.Gets)), "ratio")
	m.set("hotspot.stale_rejected", float64(lr.dhtC.CacheStaleRejected), "count")

	m.set("gc.alloc_mb", lr.gc.allocMB, "MB")
	m.set("gc.allocs", lr.gc.allocs, "count")
	m.set("gc.cycles", lr.gc.cycles, "count")

	m.set("loadgen.late_ms_max", maxOf(s.late), "ms")
	m.set("loadgen.late_ms_p99", quantile(s.late, 0.99), "ms")
	m.set("loadgen.samples", n, "count")
	m.set("latency_p99_ms", quantile(s.latency, 0.99), "ms")
	m.set("loadgen.latency_p999_ms", quantile(s.latency, 0.999), "ms")
	m.set("loadgen.slow_ops", float64(s.slow), "count")
	return out, nil
}

// controlPerNodeSec is the paper's maintenance rate: control messages
// (everything but lookups and application messages) per node per second.
func (lr *loadRun) controlPerNodeSec() float64 {
	var n float64
	for cat, v := range lr.controlSent {
		if cat != pastry.CatLookup && cat != pastry.CatApp {
			n += v
		}
	}
	return ratio(n, float64(kvNodes)*lr.window.Seconds())
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
