package experiments

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"time"

	"mspastry/internal/dht"
	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/topology"
)

// The hotspot experiment quantifies the path-caching tentpole: under a
// zipf(s≈1) read workload, a handful of key roots absorb most of the
// lookup traffic, and PR 5's overload machinery can only shed it. With
// hotspot caching on, replies to hot keys are deposited on the route's
// first and penultimate hops and subsequent lookups short-circuit
// there, so the hot root's load factor and the cluster's shed count
// drop while lookup success holds. The experiment runs the same seeded
// cluster four times — caching off/on, each with and without churn —
// with identical workload schedules, and additionally audits every
// completed read against the subsystem's staleness bound (no read may
// return a write superseded more than one sweep interval plus delivery
// grace before the read was issued) and monotonicity (no reader ever
// observes a version older than one it already read).

// hotspotSweep is the anti-entropy sweep interval, which is also the
// cache TTL backstop and therefore the staleness bound under test.
// Short, so the bound is tight and several purge cycles fit in the run.
const hotspotSweep = 15 * time.Second

// hotspotGrace covers end-to-end delivery latency (propagation plus
// bounded-queue delay) when auditing the staleness bound: a write acked
// more than sweep+grace before a read was issued must be visible.
const hotspotGrace = 2 * time.Second

// HotspotConfig shapes the experiment.
type HotspotConfig struct {
	Nodes       int           // cluster size
	Keys        int           // popular key set size
	ZipfS       float64       // zipf exponent over the key set
	GetRate     float64       // reads per second per node
	PutInterval time.Duration // per-key rewrite period (staggered)
	Duration    time.Duration // measurement window
	CacheSize   int           // per-node cache entries in the "on" runs
	Seed        int64
}

// DefaultHotspotConfig derives the bench shape (about 100 nodes at the
// default scale) from s.
func DefaultHotspotConfig(s Scale) HotspotConfig {
	return HotspotConfig{
		Nodes:       maxInt(40, s.PoissonNodes*2/5),
		Keys:        64,
		ZipfS:       1.0,
		GetRate:     2,
		PutInterval: 30 * time.Second,
		Duration:    6 * time.Minute,
		CacheSize:   256,
		Seed:        s.Seed,
	}
}

// HotspotRun is one mode's outcome.
type HotspotRun struct {
	Gets, GetOK, GetNotFound, GetFail uint64
	Retries                           uint64

	HitsLocal, HitsRemote, Serves uint64
	Deposits, Invalidations       uint64
	Purged, StaleRejected         uint64
	Shed                          uint64
	StaleBeyondBound              uint64 // reads older than sweep+grace: must be 0
	MonotonicViolations           uint64 // reads below the reader's floor: must be 0
	Loads                         []float64
	Peaks                         []float64
}

// Success is completed-OK reads over issued reads.
func (r HotspotRun) Success() float64 {
	if r.Gets == 0 {
		return 0
	}
	return float64(r.GetOK) / float64(r.Gets)
}

// HotspotResult holds all four runs.
type HotspotResult struct {
	Nodes, Keys int
	ZipfS       float64
	Window      time.Duration
	// HotIndex is the endpoint with the highest mean load factor in the
	// caching-off stable run: the hot key's root.
	HotIndex int

	OffStable, OnStable HotspotRun
	OffChurn, OnChurn   HotspotRun
}

// HotLoad returns run's mean load factor at the hot endpoint.
func (r HotspotResult) HotLoad(run HotspotRun) float64 {
	if r.HotIndex >= len(run.Loads) {
		return 0
	}
	return run.Loads[r.HotIndex]
}

// Relief is the headline ratio: the hot root's mean load factor with
// caching off over caching on, in the stable runs (the acceptance bar
// is >= 2x).
func (r HotspotResult) Relief() float64 {
	on := r.HotLoad(r.OnStable)
	if on == 0 {
		return 0
	}
	return r.HotLoad(r.OffStable) / on
}

// Hotspot runs the four-way comparison. A zero cfg field takes the
// DefaultHotspotConfig value.
func Hotspot(s Scale, cfg HotspotConfig) HotspotResult {
	def := DefaultHotspotConfig(s)
	if cfg.Nodes == 0 {
		cfg.Nodes = def.Nodes
	}
	if cfg.Keys == 0 {
		cfg.Keys = def.Keys
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = def.ZipfS
	}
	if cfg.GetRate == 0 {
		cfg.GetRate = def.GetRate
	}
	if cfg.PutInterval == 0 {
		cfg.PutInterval = def.PutInterval
	}
	if cfg.Duration == 0 {
		cfg.Duration = def.Duration
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.Seed
	}
	res := HotspotResult{Nodes: cfg.Nodes, Keys: cfg.Keys, ZipfS: cfg.ZipfS, Window: cfg.Duration}
	res.OffStable = hotspotRun(cfg, false, false)
	res.OnStable = hotspotRun(cfg, true, false)
	res.OffChurn = hotspotRun(cfg, false, true)
	res.OnChurn = hotspotRun(cfg, true, true)
	// The hot endpoint is wherever the uncached stable run piled up.
	for i, l := range res.OffStable.Loads {
		if l > res.OffStable.Loads[res.HotIndex] {
			res.HotIndex = i
		}
	}
	return res
}

// hotspotValue encodes a key's write counter into a 64-byte PAST-style
// body; hotspotCounter gets it back.
func hotspotValue(keyIdx, counter uint32) []byte {
	v := make([]byte, 64)
	binary.BigEndian.PutUint32(v[0:4], keyIdx)
	binary.BigEndian.PutUint32(v[4:8], counter)
	return v
}

func hotspotCounter(v []byte) (uint32, bool) {
	if len(v) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v[4:8]), true
}

// hotspotRun builds a seeded cluster under the bounded service-capacity
// model and drives the zipf read workload plus a staggered rewrite
// schedule over it. All randomness (zipf ranks, requester selection)
// comes from dedicated streams scheduled at deterministic times, so
// every mode sees the identical workload.
func hotspotRun(cfg HotspotConfig, caching, churn bool) HotspotRun {
	sim := eventsim.New(cfg.Seed)
	topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 6, EdgeRouters: 30},
		rand.New(rand.NewSource(cfg.Seed)))
	nw := netmodel.New(sim, topo, 0)
	// The same bounded capacity the overload experiment saturates: the
	// hot root's relief must show up as a load-factor drop, not vanish
	// into an infinite queue.
	nw.SetServiceModel(netmodel.ServiceModel{QueueLimit: 32, Rate: 50})

	pcfg := pastry.DefaultConfig()
	pcfg.L = 8
	pcfg.PNS = false
	// Under queueing delay the default MinRTO misreads backlog as loss
	// and the retransmit storm collapses the run (see overload.go): a
	// full queue adds up to QueueLimit/Rate = 640ms each way.
	pcfg.MinRTO = 1500 * time.Millisecond
	pcfg.RetryBudgetRate = 0.2
	pcfg.RetryBudgetBurst = 2

	dcfg := dht.DefaultConfig()
	dcfg.SweepInterval = hotspotSweep
	if caching {
		dcfg.CacheEntries = cfg.CacheSize
	}

	first := topo.Attach(cfg.Nodes, sim.Rand())
	stores := make([]*dht.Store, 0, cfg.Nodes)
	eps := make([]*netmodel.Endpoint, 0, cfg.Nodes)
	var seedRef pastry.NodeRef
	for i := 0; i < cfg.Nodes; i++ {
		ep := nw.NewEndpoint(first + i)
		ref := pastry.NodeRef{ID: id.Random(sim.Rand()), Addr: ep.Addr()}
		node, err := pastry.NewNode(ref, pcfg, ep, nil)
		if err != nil {
			panic(err)
		}
		ep.Bind(node)
		stores = append(stores, dht.New(node, ep, dcfg))
		eps = append(eps, ep)
		if i == 0 {
			node.Bootstrap()
			seedRef = ref
		} else {
			node.Join(seedRef)
		}
		sim.RunUntil(sim.Now() + 2*time.Second)
	}
	sim.RunUntil(sim.Now() + time.Minute)

	// The popular key set, from its own stream so it matches across
	// modes and mirrors the harness zipf discipline.
	keyRand := rand.New(rand.NewSource(cfg.Seed ^ 0x5a1bfc0de))
	keys := make([]id.ID, cfg.Keys)
	for i := range keys {
		keys[i] = id.Random(keyRand)
	}
	// Zipf(s) cumulative weights over ranks 0..Keys-1.
	cum := make([]float64, cfg.Keys)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), cfg.ZipfS)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}

	// Prefill every key (counter 1) and let replication settle.
	counters := make([]uint32, cfg.Keys)
	type ackRec struct {
		counter uint32
		at      time.Duration
	}
	ackLog := make([][]ackRec, cfg.Keys)
	writer := func(k int) int { return (k*7 + 3) % cfg.Nodes }
	putKey := func(k int) {
		if !stores[writer(k)].Node().Alive() {
			return
		}
		counters[k]++
		c := counters[k]
		kk := k
		stores[writer(k)].Put(keys[k], hotspotValue(uint32(k), c), func(err error) {
			if err == nil {
				ackLog[kk] = append(ackLog[kk], ackRec{counter: c, at: sim.Now()})
			}
		})
	}
	for k := range keys {
		putKey(k)
		if k%8 == 7 {
			sim.RunUntil(sim.Now() + time.Second)
		}
	}
	sim.RunUntil(sim.Now() + 30*time.Second + 2*hotspotSweep)

	var run HotspotRun
	start := sim.Now()
	end := start + cfg.Duration

	// Staggered rewrites: each key every PutInterval, spread evenly.
	var rewrite func(k int)
	rewrite = func(k int) {
		if sim.Now() >= end {
			return
		}
		putKey(k)
		sim.PostAfter(cfg.PutInterval, func() { rewrite(k) })
	}
	for k := range keys {
		kk := k
		sim.PostAfter(time.Duration(k+1)*cfg.PutInterval/time.Duration(cfg.Keys),
			func() { rewrite(kk) })
	}

	// The zipf read workload: one global arrival process at the
	// aggregate rate, requester and rank drawn from a dedicated stream.
	// lastRead tracks each reader's floor per key for the monotonic
	// audit; ackLog gives the staleness bound.
	wl := rand.New(rand.NewSource(cfg.Seed ^ 0x40753a9))
	rankOf := func(u float64) int {
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Monotonic reads are a session guarantee over *sequential* reads:
	// two overlapping in-flight reads may legitimately complete out of
	// order. A completed read only raises the reader's floor, and only a
	// read issued after the floor-setting read completed can violate it.
	type readFloor struct {
		counter     uint32
		completedAt time.Duration
	}
	lastRead := make([]map[int]readFloor, cfg.Nodes)
	for i := range lastRead {
		lastRead[i] = make(map[int]readFloor)
	}
	boundAt := func(k int, issued time.Duration) uint32 {
		bound := uint32(0)
		for _, a := range ackLog[k] {
			if a.at+hotspotSweep+hotspotGrace <= issued {
				bound = a.counter
			} else {
				break
			}
		}
		return bound
	}
	gap := time.Duration(float64(time.Second) / (cfg.GetRate * float64(cfg.Nodes)))
	var readLoop func()
	readLoop = func() {
		if sim.Now() >= end {
			return
		}
		n := wl.Intn(cfg.Nodes)
		k := rankOf(wl.Float64())
		if stores[n].Node().Alive() {
			run.Gets++
			issued := sim.Now()
			stores[n].Get(keys[k], func(v []byte, err error) {
				switch {
				case err == nil:
					run.GetOK++
					c, ok := hotspotCounter(v)
					if !ok {
						return
					}
					if c < boundAt(k, issued) {
						run.StaleBeyondBound++
					}
					fl := lastRead[n][k]
					if c < fl.counter && issued > fl.completedAt {
						run.MonotonicViolations++
					}
					if c >= fl.counter {
						lastRead[n][k] = readFloor{counter: c, completedAt: sim.Now()}
					}
				case errors.Is(err, dht.ErrNotFound):
					run.GetNotFound++
				default:
					run.GetFail++
				}
			})
		}
		sim.PostAfter(gap, readLoop)
	}
	sim.PostAfter(gap, readLoop)

	// Load sampling at a fixed cadence (no randomness: identical event
	// schedule in every mode).
	run.Loads = make([]float64, cfg.Nodes)
	run.Peaks = make([]float64, cfg.Nodes)
	samples := 0
	var sample func()
	sample = func() {
		if sim.Now() >= end {
			return
		}
		samples++
		for i, ep := range eps {
			lf := ep.LoadFactor()
			run.Loads[i] += lf
			if lf > run.Peaks[i] {
				run.Peaks[i] = lf
			}
		}
		sim.PostAfter(500*time.Millisecond, sample)
	}
	sim.PostAfter(500*time.Millisecond, sample)

	// Churn: crash 10% of the population mid-run, one sweep apart,
	// never the seed node and with the same victims in every mode.
	if churn {
		crashes := maxInt(1, cfg.Nodes/10)
		victim := 1
		at := start + cfg.Duration/3
		for i := 0; i < crashes; i++ {
			victim = (victim + 7) % cfg.Nodes
			if victim == 0 {
				victim = 1
			}
			v := victim
			sim.PostAfter(at-sim.Now()+time.Duration(i)*hotspotSweep, func() { eps[v].Fail() })
		}
	}

	before := sumHotspotCounters(stores)
	shedBefore := sumShed(nw)
	sim.RunUntil(end)
	// Let in-flight reads finish so success accounting is not truncated
	// at the window edge (no new reads are issued past end).
	sim.RunUntil(end + 30*time.Second)

	delta := sumHotspotCounters(stores)
	run.Retries = delta.Retries - before.Retries
	run.HitsLocal = delta.CacheHitsLocal - before.CacheHitsLocal
	run.HitsRemote = delta.CacheHitsRemote - before.CacheHitsRemote
	run.Serves = delta.CacheServes - before.CacheServes
	run.Deposits = delta.CacheDeposits - before.CacheDeposits
	run.Invalidations = delta.CacheInvalidations - before.CacheInvalidations
	run.Purged = delta.CachePurged - before.CachePurged
	run.StaleRejected = delta.CacheStaleRejected - before.CacheStaleRejected
	run.Shed = sumShed(nw) - shedBefore
	for i := range run.Loads {
		if samples > 0 {
			run.Loads[i] /= float64(samples)
		}
	}
	return run
}

func sumHotspotCounters(stores []*dht.Store) dht.Counters {
	var sum dht.Counters
	for _, s := range stores {
		c := s.Counters()
		sum.Retries += c.Retries
		sum.CacheHitsLocal += c.CacheHitsLocal
		sum.CacheHitsRemote += c.CacheHitsRemote
		sum.CacheServes += c.CacheServes
		sum.CacheDeposits += c.CacheDeposits
		sum.CacheInvalidations += c.CacheInvalidations
		sum.CachePurged += c.CachePurged
		sum.CacheStaleRejected += c.CacheStaleRejected
	}
	return sum
}

func sumShed(nw *netmodel.Network) uint64 {
	var total uint64
	for _, n := range nw.ShedByLane {
		total += n
	}
	return total
}

// HotspotCols returns the column set for Rows.
func HotspotCols() []string {
	return []string{"ok%", "hotLoad", "hotPeak", "shed", "hitsL", "hitsR", "served", "depos", "inval", "stale>b", "relief"}
}

// Rows renders one row per mode; the relief ratio rides on the
// stable caching-on row.
func (r HotspotResult) Rows() []Row {
	row := func(label string, run HotspotRun) Row {
		return Row{Label: label, Values: map[string]float64{
			"ok%":     run.Success() * 100,
			"hotLoad": r.HotLoad(run),
			"hotPeak": r.hotPeak(run),
			"shed":    float64(run.Shed),
			"hitsL":   float64(run.HitsLocal),
			"hitsR":   float64(run.HitsRemote),
			"served":  float64(run.Serves),
			"depos":   float64(run.Deposits),
			"inval":   float64(run.Invalidations),
			"stale>b": float64(run.StaleBeyondBound),
		}}
	}
	off := row("off/stable", r.OffStable)
	on := row("on/stable", r.OnStable)
	on.Values["relief"] = r.Relief()
	offC := row("off/churn", r.OffChurn)
	onC := row("on/churn", r.OnChurn)
	return []Row{off, on, offC, onC}
}

func (r HotspotResult) hotPeak(run HotspotRun) float64 {
	if r.HotIndex >= len(run.Peaks) {
		return 0
	}
	return run.Peaks[r.HotIndex]
}
