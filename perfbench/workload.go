package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"powerpunch/internal/cmp"
	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
	"powerpunch/internal/parsec"
	"powerpunch/internal/traffic"
)

// spec is the shape of one simulation run. Synthetic runs warm up for
// warm cycles, then time a window of blocks × block cycles with energy
// accounting on, then drain. The CMP run times blocks of block cycles
// from cycle warm until every core has retired instr instructions and the
// network has drained.
type spec struct {
	warm   int64
	block  int64
	blocks int64 // synthetic only
	instr  int64 // CMP only: instruction budget per core
}

// workload is one named benchmark input. See README.md for why each one
// exists.
type workload struct {
	name    string
	why     string
	scheme  config.Scheme
	width   int     // square fabric side
	rate    float64 // uniform-random offered load, flits/node/cycle; 0 marks the CMP
	workers int     // Config.Workers
	procs   int     // GOMAXPROCS wanted, clamped to the CPU count
	run     spec    // the measured trials
	prefix  spec    // the shorter run compared against the reference engines
}

const (
	// drainCycles bounds the synthetic drain; a run that has not drained
	// by then fails.
	drainCycles = 20_000
	// cmpMaxCycles bounds a CMP run; one that has not completed by then
	// fails.
	cmpMaxCycles = 5_000_000
	cmpProfile   = "canneal"
)

var workloads = []*workload{
	{
		name:   "punch-8x8-low",
		why:    "paper low-load regime: most routers gated, cost in the punch fabric, PG controllers and scheduler",
		scheme: config.PowerPunchPG, width: 8, rate: 0.02, procs: 1,
		run:    spec{warm: 2000, block: 250, blocks: 80},
		prefix: spec{warm: 500, block: 250, blocks: 12},
	},
	{
		name:   "nopg-8x8-high",
		why:    "every router hot and never gated: router-bound, the no-change control for PG, punch and energy changes",
		scheme: config.NoPG, width: 8, rate: 0.30, procs: 1,
		run:    spec{warm: 1000, block: 100, blocks: 120},
		prefix: spec{warm: 300, block: 100, blocks: 15},
	},
	{
		name:   "cmp-canneal",
		why:    "paper headline full-system run: closed-loop coherence traffic on 3 VNs with NI slack hints, timed to result",
		scheme: config.PowerPunchPG, width: 8, procs: 1,
		run:    spec{warm: 2000, block: 250, instr: 60_000},
		prefix: spec{warm: 500, block: 250, instr: 3_000},
	},
	{
		name:   "punch-32x32-par2",
		why:    "the only run of the parallel engine, on a fabric whose working set outgrows the caches",
		scheme: config.PowerPunchPG, width: 32, rate: 0.02, workers: 2, procs: 2,
		run:    spec{warm: 300, block: 25, blocks: 60},
		prefix: spec{warm: 50, block: 25, blocks: 8},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, names)
}

func (w *workload) closed() bool { return w.rate == 0 }

// gomaxprocs is the workload's GOMAXPROCS: never more than the host has.
func (w *workload) gomaxprocs() int {
	return min(w.procs, runtime.NumCPU())
}

func (w *workload) config(s spec, seed int64) config.Config {
	cfg := config.Default()
	cfg.Scheme = w.scheme
	cfg.Width, cfg.Height = w.width, w.width
	cfg.Seed = seed
	cfg.Workers = w.workers
	if w.closed() {
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
	} else {
		cfg.WarmupCycles = s.warm
		cfg.MeasureCycles = s.blocks * s.block
		cfg.DrainCycles = drainCycles
		cfg.RecyclePackets = true
	}
	return cfg
}

// sim is one constructed simulation: the network and the driver that
// feeds it the generated traffic.
type sim struct {
	net *network.Network
	drv network.Driver
	sys *cmp.System // nil for synthetic traffic
}

func (w *workload) build(s spec, seed int64, mod func(*config.Config)) (*sim, error) {
	cfg := w.config(s, seed)
	if mod != nil {
		mod(&cfg)
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if !w.closed() {
		return &sim{net: net, drv: traffic.NewSynthetic(traffic.UniformRandom{}, w.rate, seed)}, nil
	}
	prof, err := parsec.Profile(cmpProfile, s.instr)
	if err != nil {
		net.Close()
		return nil, err
	}
	sys := cmp.NewSystem(prof, net, seed)
	return &sim{net: net, drv: sys, sys: sys}, nil
}

// execCycles is the simulated run length: the CMP's execution time, or
// the cycle a synthetic run drained at.
func (s *sim) execCycles(res network.RunResult) int64 {
	if s.sys != nil {
		return s.sys.ExecutionTime()
	}
	return res.Cycles
}

// reference runs s on the repository's own loops (Network.Run and
// Network.RunUntil) with mod applied to the configuration: the result a
// trial of the same shape and seed must reproduce exactly.
func (w *workload) reference(s spec, seed int64, mod func(*config.Config)) (network.RunResult, int64, error) {
	sm, err := w.build(s, seed, mod)
	if err != nil {
		return network.RunResult{}, 0, err
	}
	defer sm.net.Close()
	var res network.RunResult
	if sm.sys != nil {
		res = sm.net.RunUntil(sm.sys, cmpMaxCycles)
	} else {
		res = sm.net.Run(sm.drv)
	}
	return res, sm.execCycles(res), nil
}

func fullTick(c *config.Config) { c.FullTick = true }
func serial(c *config.Config)   { c.Workers = 0 }

// finished is a driver with nothing left to send. RunUntil with it on a
// drained network steps no cycle and returns the run's result: the public
// way to read a RunResult after a hand-driven loop.
type finished struct{}

func (finished) Tick(*network.Network, int64) {}
func (finished) Done() bool                   { return true }

// trial is what one simulation run measured.
type trial struct {
	res  network.RunResult
	exec int64

	setup  time.Duration // network.New plus driver construction
	wall   time.Duration // first cycle to result
	blocks []time.Duration

	windowCycles int64
	windowTime   time.Duration // sum of the window's cycle time, sampling excluded
	hops         int64         // router flit traversals in the window
	heap         uint64        // live heap after setup and warmup, bytes
	runAllocs    uint64        // heap allocations from the first cycle to the result
	windowAllocs uint64
	windowGCs    uint64

	backlog  []int // NI backlog at each block boundary (synthetic only)
	active   []int // routers not gated at each block boundary (traced only)
	flitsIn  int64 // flits injected by every NI, all VNs
	flitsOut int64 // flits ejected to every NI, all VNs
	inFlight int64 // measured packets never delivered
	stall    int64 // CMP core stall cycles
}

// trialOpts modify a trial. The zero value is a plain untraced trial.
type trialOpts struct {
	tr    *tracer       // records spans around every call into the simulator
	probe *obs.Counters // attached as an observer before the first cycle
}

// memReader reads the runtime's allocation and GC counters without
// stopping the world or allocating.
type memReader struct{ s []metrics.Sample }

func newMemReader() *memReader {
	return &memReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (m *memReader) read() (allocs, gcs uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

// liveHeap returns the live heap after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTrial builds and runs one simulation of shape s. It drives the
// cycle loop itself, replicating Network.Run (synthetic) or
// Network.RunUntil (CMP) call for call, so it can time every block and
// span every call; the reference comparison proves the replication exact.
func (w *workload) runTrial(s spec, seed int64, o trialOpts) (*trial, error) {
	t := &trial{}
	tr := o.tr
	base := liveHeap()

	t0 := time.Now()
	sm, err := w.build(s, seed, nil)
	t.setup = time.Since(t0)
	if err != nil {
		return nil, err
	}
	defer sm.net.Close()
	net := sm.net
	tr.add(spanNew, -1, t0, t0.Add(t.setup))
	if o.probe != nil {
		net.Observe(o.probe)
	}
	tickKind := spanTraffic
	if sm.sys != nil {
		tickKind = spanCMP
	}
	cycle := func() {
		now := net.Now()
		if tr == nil {
			sm.drv.Tick(net, now)
			net.Step()
			return
		}
		a := time.Now()
		sm.drv.Tick(net, now)
		b := time.Now()
		net.Step()
		c := time.Now()
		tr.add(tickKind, now, a, b)
		tr.add(spanStep, now, b, c)
	}
	step := func() {
		now := net.Now()
		if tr == nil {
			net.Step()
			return
		}
		b := time.Now()
		net.Step()
		tr.add(spanStep, now, b, time.Now())
	}
	// more reports whether the loop goes on: RunUntil's condition for the
	// CMP (Done is called every cycle, as RunUntil does), the end of the
	// measured window for synthetic traffic.
	measEnd := s.warm + s.blocks*s.block
	more := func() bool {
		if sm.sys != nil {
			return (!sm.sys.Done() || !net.Quiesced()) && net.Now() < cmpMaxCycles
		}
		return net.Now() < measEnd
	}

	mr := newMemReader()
	start := time.Now()
	a0, _ := mr.read()
	if sm.sys != nil {
		net.SetAccounting(true)
	}
	for net.Now() < s.warm && more() {
		cycle()
	}
	if sm.sys == nil {
		net.SetAccounting(true)
	}

	// The timed window.
	hops0 := net.Report().Totals().FlitsForwarded
	if h := liveHeap(); h > base {
		t.heap = h - base
	}
	wa0, wg0 := mr.read()
	c0 := net.Now()
	tb := time.Now()
	for more() {
		cycle()
		if (net.Now()-s.warm)%s.block != 0 {
			continue
		}
		d := time.Since(tb)
		t.blocks = append(t.blocks, d)
		t.windowTime += d
		if sm.sys == nil {
			t.backlog = append(t.backlog, niBacklog(net))
		}
		if tr != nil {
			t.active = append(t.active, len(net.Routers)-net.GatedRouterCount())
		}
		tb = time.Now()
	}
	t.windowTime += time.Since(tb)
	wa1, wg1 := mr.read()
	t.windowAllocs, t.windowGCs = wa1-wa0, wg1-wg0
	t.windowCycles = net.Now() - c0
	t.hops = net.Report().Totals().FlitsForwarded - hops0

	// Drain (synthetic), exactly as Network.Run does.
	var done network.Driver = finished{}
	if sm.sys == nil {
		net.SetAccounting(false)
		drainEnd := measEnd + net.Cfg.DrainCycles
		for net.Col.InFlight() > 0 || !net.Quiesced() {
			if net.Now() >= drainEnd {
				break
			}
			step()
		}
	} else {
		done = sm.sys
	}
	rs := time.Now()
	t.res = net.RunUntil(done, net.Now())
	tr.add(spanResult, net.Now(), rs, time.Now())
	t.wall = time.Since(start)
	a1, _ := mr.read()
	t.runAllocs = a1 - a0

	t.exec = sm.execCycles(t.res)
	for _, nif := range net.NIs {
		for vn := flit.VirtualNetwork(0); vn < flit.NumVirtualNetworks; vn++ {
			t.flitsIn += nif.InjectedFlitsVN(vn)
			t.flitsOut += nif.EjectedFlitsVN(vn)
		}
	}
	t.inFlight = net.Col.InFlight()
	if sm.sys != nil {
		t.stall = sm.sys.TotalStallCycles()
	}
	return t, nil
}

// niBacklog is the number of messages waiting in every NI.
func niBacklog(net *network.Network) int {
	q := 0
	for _, nif := range net.NIs {
		q += nif.QueuedPackets()
	}
	return q
}
