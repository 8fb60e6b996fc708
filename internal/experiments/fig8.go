package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mspastry/internal/eventsim"
	"mspastry/internal/id"
	"mspastry/internal/netmodel"
	"mspastry/internal/pastry"
	"mspastry/internal/squirrel"
	"mspastry/internal/topology"
	"mspastry/internal/trace"
	"mspastry/internal/transport"
)

// Fig8Window is one point of the Figure 8 series: total traffic (control,
// lookup and application messages) per second per node.
type Fig8Window struct {
	Start           time.Duration
	TotalPerNodeSec float64
	Active          float64
	Requests        int
}

// Fig8Result is the Squirrel traffic series of Figure 8: total traffic per
// node over a six-day deployment with 52 machines, with the weekday/
// weekend pattern visible.
type Fig8Result struct {
	Windows []Fig8Window
	// OriginFetches and Requests summarise cache effectiveness.
	OriginFetches int
	Requests      int
}

// Fig8Config parameterises the Squirrel workload replay.
type Fig8Config struct {
	Machines int
	Days     int
	// PeakRequestRate is web requests per second per active machine at
	// the workday peak.
	PeakRequestRate float64
	// Catalog is the number of distinct URLs browsed.
	Catalog int
	Window  time.Duration
	Seed    int64
}

// DefaultFig8Config matches the paper's deployment: 52 machines, 6 days
// (4 weekdays and a weekend).
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Machines:        52,
		Days:            6,
		PeakRequestRate: 0.02,
		Catalog:         400,
		Window:          2 * time.Hour,
		Seed:            1,
	}
}

// Fig8Squirrel replays a synthetic Squirrel workload — web requests with a
// strong daily pattern and quieter weekends, machines leaving at night —
// through the simulator and reports total traffic per node per window.
func Fig8Squirrel(cfg Fig8Config) Fig8Result {
	sim := eventsim.New(cfg.Seed)
	topo := topology.CorpNet(topology.DefaultCorpNet(), rand.New(rand.NewSource(cfg.Seed)))
	nw := netmodel.New(sim, topo, 0)

	duration := time.Duration(cfg.Days) * 24 * time.Hour
	// Machine availability: office machines stay up ~20h at a time and
	// are mostly on (the Squirrel deployment machines were desktops).
	churn := trace.Generate(trace.Config{
		Name: "squirrel", Duration: duration,
		Population: cfg.Machines, OnlineFraction: 0.85,
		MeanSession: 20 * time.Hour, Diurnal: 0.3, Weekly: 0.3,
		Seed: cfg.Seed,
	})

	pcfg := pastry.DefaultConfig()
	pcfg.L = 16

	nwin := int(duration/cfg.Window) + 1
	msgs := make([]int, nwin)
	reqs := make([]int, nwin)
	nodeSec := make([]float64, nwin)
	win := func() int {
		i := int(sim.Now() / cfg.Window)
		if i >= nwin {
			i = nwin - 1
		}
		return i
	}
	nw.OnSend(func(from *netmodel.Endpoint, to pastry.NodeRef, m pastry.Message, singleBytes int) {
		msgs[win()]++
	})

	res := Fig8Result{}
	origin := squirrel.OriginFunc(func(url string) ([]byte, error) {
		res.OriginFetches++
		return []byte("obj:" + url), nil
	})

	eps := make([]*netmodel.Endpoint, cfg.Machines)
	proxies := make([]*squirrel.Proxy, cfg.Machines)
	first := topo.Attach(cfg.Machines, sim.Rand())
	for i := range eps {
		eps[i] = nw.NewEndpoint(first + i)
	}
	var bootstrapped bool
	alive := make([]int, 0, cfg.Machines)
	start := func(slot int) {
		ep := eps[slot]
		ref := pastry.NodeRef{ID: id.Random(sim.Rand()), Addr: ep.Addr()}
		node, err := pastry.NewNode(ref, pcfg, ep, nil)
		if err != nil {
			panic(err)
		}
		ep.Bind(node)
		proxies[slot] = squirrel.New(node, origin, squirrel.DefaultConfig())
		node.SetSeedSource(func() (pastry.NodeRef, bool) {
			for _, s := range alive {
				if s != slot && proxies[s] != nil && proxies[s].Node().Active() {
					return proxies[s].Node().Ref(), true
				}
			}
			return pastry.NodeRef{}, false
		})
		if !bootstrapped {
			bootstrapped = true
			node.Bootstrap()
		} else {
			seeded := false
			for _, s := range alive {
				if proxies[s] != nil && proxies[s].Node().Active() {
					node.Join(proxies[s].Node().Ref())
					seeded = true
					break
				}
			}
			if !seeded {
				node.Bootstrap()
			}
		}
		alive = append(alive, slot)
	}
	stop := func(slot int) {
		eps[slot].Fail()
		for i, s := range alive {
			if s == slot {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
	}

	// Warm start.
	for _, slot := range churn.Initial {
		slot := slot
		sim.Post(time.Duration(sim.Rand().Int63n(int64(10*time.Minute))), func() { start(slot) })
	}
	const ramp = 15 * time.Minute
	for _, ev := range churn.Events {
		ev := ev
		at := ramp + ev.At
		switch ev.Kind {
		case trace.Join:
			sim.Post(at, func() {
				if !eps[ev.Node].Up() {
					start(ev.Node)
				}
			})
		case trace.Leave:
			sim.Post(at, func() {
				if eps[ev.Node].Up() {
					stop(ev.Node)
				}
			})
		}
	}

	// Web workload: per-tick Poisson thinned by the diurnal/weekly curve.
	catalog := make([]string, cfg.Catalog)
	for i := range catalog {
		catalog[i] = fmt.Sprintf("http://corp.example/doc-%04d", i)
	}
	zipf := rand.NewZipf(sim.Rand(), 1.1, 2.0, uint64(cfg.Catalog-1))
	var tick func()
	const step = 30 * time.Second
	tick = func() {
		now := sim.Now()
		if now >= duration {
			return
		}
		intensity := workdayIntensity(now)
		mean := cfg.PeakRequestRate * intensity * step.Seconds()
		for _, slot := range alive {
			p := proxies[slot]
			if p == nil || !p.Node().Alive() || !p.Node().Active() {
				continue
			}
			n := poissonDraw(sim.Rand(), mean)
			for k := 0; k < n; k++ {
				w := win()
				reqs[w]++
				res.Requests++
				p.Get(catalog[int(zipf.Uint64())], func([]byte, squirrel.Outcome) {})
			}
		}
		// Integrate node-seconds.
		nodeSec[win()] += float64(len(alive)) * step.Seconds()
		sim.PostAfter(step, tick)
	}
	sim.Post(ramp, tick)

	sim.RunUntil(duration)

	for i := 0; i < nwin; i++ {
		w := Fig8Window{Start: time.Duration(i) * cfg.Window, Requests: reqs[i]}
		if nodeSec[i] > 0 {
			w.TotalPerNodeSec = float64(msgs[i]) / nodeSec[i]
			w.Active = nodeSec[i] / cfg.Window.Seconds()
		}
		res.Windows = append(res.Windows, w)
	}
	return res
}

// workdayIntensity models office web browsing: strong daytime peak on
// weekdays (days 0-3 and 6 of the paper's trace week), low weekends.
func workdayIntensity(t time.Duration) float64 {
	day := int(t.Hours()) / 24
	hour := t.Hours() - float64(day)*24
	daytime := 0.05
	if hour >= 8 && hour <= 18 {
		daytime = 1.0
	} else if hour > 18 && hour < 22 {
		daytime = 0.3
	}
	// Days 4 and 5 are the weekend.
	if day%7 == 4 || day%7 == 5 {
		daytime *= 0.15
	}
	return daytime
}

// poissonDraw samples a Poisson variate with Knuth's method (the means
// here are well below 10, where it is exact and fast).
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	l := 1.0
	for i := 0; i < 1000; i++ {
		l *= rng.Float64()
		if l < limit {
			return i
		}
	}
	return 1000
}

// Fig8Validation runs the same compressed Squirrel workload twice — once
// in the discrete-event simulator and once over real UDP sockets on the
// loopback interface — and returns total messages per node from each, the
// paper's simulator-validation claim ("the simulation results are very
// similar to the statistics obtained from the real deployment").
type Fig8ValidationResult struct {
	SimMessages  uint64
	LiveMessages uint64
	Nodes        int
	Duration     time.Duration
}

// Ratio returns live/sim message counts (1.0 = perfect agreement).
func (r Fig8ValidationResult) Ratio() float64 {
	if r.SimMessages == 0 {
		return 0
	}
	return float64(r.LiveMessages) / float64(r.SimMessages)
}

// Fig8Validation executes the validation with n nodes for the given wall
// duration.
func Fig8Validation(n int, duration time.Duration, seed int64) (Fig8ValidationResult, error) {
	cfg := pastry.DefaultConfig()
	cfg.L = 8
	cfg.Tls = 2 * time.Second
	cfg.To = time.Second
	cfg.TickInterval = time.Second
	cfg.DistProbeSpacing = 200 * time.Millisecond
	cfg.RTMaintenance = 20 * time.Second

	requestEvery := 500 * time.Millisecond

	// --- simulator run ---
	var simMsgs uint64
	{
		sim := eventsim.New(seed)
		topo := topology.CorpNet(topology.CorpNetConfig{Hubs: 4, EdgeRouters: 12}, rand.New(rand.NewSource(seed)))
		nw := netmodel.New(sim, topo, 0)
		nw.OnSend(func(*netmodel.Endpoint, pastry.NodeRef, pastry.Message, int) { simMsgs++ })
		origin := squirrel.OriginFunc(func(url string) ([]byte, error) { return []byte(url), nil })
		first := topo.Attach(n, sim.Rand())
		proxies := make([]*squirrel.Proxy, n)
		var seedRef pastry.NodeRef
		for i := 0; i < n; i++ {
			ep := nw.NewEndpoint(first + i)
			ref := pastry.NodeRef{ID: id.Random(sim.Rand()), Addr: ep.Addr()}
			node, err := pastry.NewNode(ref, cfg, ep, nil)
			if err != nil {
				return Fig8ValidationResult{}, err
			}
			ep.Bind(node)
			proxies[i] = squirrel.New(node, origin, squirrel.DefaultConfig())
			if i == 0 {
				node.Bootstrap()
				seedRef = ref
			} else {
				node.Join(seedRef)
			}
			sim.RunUntil(sim.Now() + time.Second)
		}
		reqRng := rand.New(rand.NewSource(seed + 7))
		end := sim.Now() + duration
		for sim.Now() < end {
			p := proxies[reqRng.Intn(n)]
			if p.Node().Alive() && p.Node().Active() {
				p.Get(fmt.Sprintf("http://val.example/%d", reqRng.Intn(50)), func([]byte, squirrel.Outcome) {})
			}
			sim.RunUntil(sim.Now() + requestEvery)
		}
	}

	// --- live UDP run with the same shape ---
	var liveMsgs uint64
	{
		origin := squirrel.OriginFunc(func(url string) ([]byte, error) { return []byte(url), nil })
		transports := make([]*transport.UDP, 0, n)
		defer func() {
			for _, tr := range transports {
				_ = tr.Close()
			}
		}()
		proxies := make([]*squirrel.Proxy, n)
		var seedRef pastry.NodeRef
		for i := 0; i < n; i++ {
			tr, err := transport.Listen("127.0.0.1:0", seed+int64(i))
			if err != nil {
				return Fig8ValidationResult{}, err
			}
			transports = append(transports, tr)
			if _, err := tr.CreateNode(id.ID{}, cfg, nil); err != nil {
				return Fig8ValidationResult{}, err
			}
			i := i
			tr.DoSync(func(nd *pastry.Node) {
				proxies[i] = squirrel.New(nd, origin, squirrel.DefaultConfig())
			})
			if i == 0 {
				tr.DoSync(func(nd *pastry.Node) { nd.Bootstrap(); seedRef = nd.Ref() })
			} else {
				tr.DoSync(func(nd *pastry.Node) { nd.Join(seedRef) })
			}
			time.Sleep(time.Second)
		}
		reqRng := rand.New(rand.NewSource(seed + 7))
		deadline := time.Now().Add(duration)
		for time.Now().Before(deadline) {
			i := reqRng.Intn(n)
			url := fmt.Sprintf("http://val.example/%d", reqRng.Intn(50))
			transports[i].Do(func(nd *pastry.Node) {
				if nd.Alive() && nd.Active() {
					proxies[i].Get(url, func([]byte, squirrel.Outcome) {})
				}
			})
			time.Sleep(requestEvery)
		}
		for _, tr := range transports {
			sent, _ := tr.Counters()
			liveMsgs += sent
		}
	}
	return Fig8ValidationResult{
		SimMessages:  simMsgs,
		LiveMessages: liveMsgs,
		Nodes:        n,
		Duration:     duration,
	}, nil
}
