// Command perfbench is the repository's benchmark: it runs named NoC
// workloads through the simulator's public layer functions, times them
// from outside, checks every output, and prints the end-to-end metrics
// (untraced) or the per-layer split (traced). See README.md.
//
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"powerpunch/internal/config"
	"powerpunch/internal/obs"
)

const (
	// setupReps extra constructions per run, so setup_s averages many
	// even when few trials fit in the run.
	setupReps = 7
	// profileHz is the traced run's CPU sampling rate: enough samples in
	// a few seconds to resolve a 10% layer share to about a percent.
	profileHz = 250
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated traffic")
	seconds := flag.Int("seconds", 10, "measurement time per workload, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's spans, profile and layer table")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed int64, seconds, trace int, out string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	ws := workloads
	if name != "all" {
		wl, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []*workload{wl}
	}
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()

	var results []*result
	for _, wl := range ws {
		r, err := measure(wl, seed, time.Duration(seconds)*time.Second, trace == 1, cal, out)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	return printReport(w, results, seed, trace == 1)
}

// result is everything one workload's run measured.
type result struct {
	w       *workload
	host    host
	tally   tally
	e2e     map[string]float64
	layer   map[string]float64 // traced runs only
	blocks  int                // timed blocks behind the block percentiles
	beyond  int                // blocks slower than their trial's p90
	samples int64              // CPU profile samples (traced)
	stress  []string           // stress-check findings (traced)

	calibCPU, calibMem float64 // calibration kernels' medians, ns
}

// measure runs one workload for about dur: a reference comparison over a
// prefix, setup repetitions, then untraced trials (and, when traced,
// traced trials under the CPU profiler plus one observed trial).
func measure(w *workload, seed int64, dur time.Duration, traced bool, cal *calibrator, outDir string) (*result, error) {
	prev := runtime.GOMAXPROCS(w.gomaxprocs())
	defer runtime.GOMAXPROCS(prev)
	r := &result{w: w, host: hostInfo(), e2e: map[string]float64{}}
	nodes := w.width * w.width

	// The benchmark's own loop over a prefix of the workload must match
	// the repository's loop on the FullTick reference walk (and, for the
	// parallel engine, on the serial engine) exactly.
	pre, err := w.runTrial(w.prefix, seed, trialOpts{})
	if err != nil {
		return nil, err
	}
	type engine struct {
		from string
		mod  func(*config.Config)
	}
	refs := []engine{{"the FullTick reference", fullTick}}
	if w.workers > 1 {
		refs = append(refs, engine{"the Workers=0 reference", serial})
	}
	var wants []*outcome
	for _, ref := range refs {
		res, exec, err := w.reference(w.prefix, seed, ref.mod)
		if err != nil {
			return nil, err
		}
		wants = append(wants, &outcome{from: ref.from, res: res, exec: exec})
	}
	r.tally.add("prefix run", checkTrial(pre, nodes, wants...))

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		sm, err := w.build(w.run, seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sm.net.Close()
	}

	var (
		first          *outcome
		plain, tracedT []*trial
		cpuNs, memNs   []float64
	)
	trialRun := func(label string, o trialOpts) (*trial, error) {
		if o.tr == nil { // keep the kernels out of the traced profile
			cpuNs = append(cpuNs, cal.cpuNs())
			memNs = append(memNs, cal.memNs())
		}
		t, err := w.runTrial(w.run, seed, o)
		if err != nil {
			return nil, err
		}
		if first == nil {
			r.tally.add(label, checkTrial(t, nodes))
			first = t.outcome("the first trial")
		} else {
			r.tally.add(label, checkTrial(t, nodes, first))
		}
		return t, nil
	}

	start := time.Now()
	plainEnd, minPlain := start.Add(dur), 3
	if traced {
		plainEnd, minPlain = start.Add(dur/3), 2
	}
	for len(plain) < minPlain || time.Now().Before(plainEnd) {
		t, err := trialRun(fmt.Sprintf("trial %d", len(plain)+1), trialOpts{})
		if err != nil {
			return nil, err
		}
		plain = append(plain, t)
		setups = append(setups, t.setup.Seconds())
	}
	r.endToEnd(plain, setups)

	var (
		tr   *tracer
		prof bytes.Buffer
	)
	if traced {
		tr = newTracer()
		// Raising the rate before StartCPUProfile makes the runtime print a
		// harmless "cannot set cpu profile rate" line to standard error.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		for len(tracedT) < 2 || time.Since(start) < dur {
			tr.trial = int32(len(tracedT))
			t, err := trialRun(fmt.Sprintf("traced trial %d", len(tracedT)+1), trialOpts{tr: tr})
			if err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
			tracedT = append(tracedT, t)
		}
		pprof.StopCPUProfile()

		probe := &obs.Counters{}
		if _, err := trialRun("observed trial", trialOpts{probe: probe}); err != nil {
			return nil, err
		}
		shares, samples, err := layerShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.samples = samples
		r.perLayer(plain, tracedT, tr, shares, probe)
	}
	r.calibCPU, r.calibMem = median(cpuNs), median(memNs)
	r.e2e["ok_frac"] = ratio(float64(r.tally.attempted-r.tally.failed), float64(r.tally.attempted))
	if !traced {
		return r, nil
	}
	r.layer["host.calib_cpu_ns"], r.layer["host.calib_mem_ns"] = r.calibCPU, r.calibMem
	r.stress = stressFindings(w, r.layer)
	return r, r.writeTrace(outDir, tr, prof.Bytes())
}

// windows sums the timed windows of trials.
type windows struct {
	cycles, hops, allocs, gcs float64
	secs                      float64
}

func sumWindows(ts []*trial) windows {
	var w windows
	for _, t := range ts {
		w.cycles += float64(t.windowCycles)
		w.hops += float64(t.hops)
		w.allocs += float64(t.windowAllocs)
		w.gcs += float64(t.windowGCs)
		w.secs += t.windowTime.Seconds()
	}
	return w
}

// endToEnd fills the end-to-end metrics from the untraced trials. The
// host's speed alternates between faster and slower phases lasting
// seconds; a median jumps from one phase to the other as their mix
// changes between runs, while a mean moves with the mix. So host times
// are trimmed means over the run's trials (each trial's own block
// percentiles for the block metrics) and rates are totals over all of
// the run's timed windows.
func (r *result) endToEnd(plain []*trial, setups []float64) {
	var wall, p50, p90, heap, allocs []float64
	for _, t := range plain {
		wall = append(wall, t.wall.Seconds())
		blocks := make([]float64, len(t.blocks))
		for i, b := range t.blocks {
			blocks[i] = float64(b.Nanoseconds()) / 1e6
		}
		q50, q90 := quantile(blocks, 0.5), quantile(blocks, 0.9)
		p50, p90 = append(p50, q50), append(p90, q90)
		r.blocks += len(blocks)
		for _, b := range blocks {
			if b > q90 {
				r.beyond++
			}
		}
		heap = append(heap, float64(t.heap)/1e6)
		allocs = append(allocs, ratio(float64(t.runAllocs), float64(t.res.Cycles)))
	}
	win := sumWindows(plain)
	res := plain[0].res
	m := r.e2e
	m["setup_s"] = trimmedMean(setups)
	m["wall_s"] = trimmedMean(wall)
	m["sim_cycles_per_s"] = ratio(win.cycles, win.secs)
	m["block_ms_p50"] = trimmedMean(p50)
	m["block_ms_p90"] = trimmedMean(p90)
	m["flit_hops_per_s"] = ratio(win.hops, win.secs)
	m["heap_mb"] = median(heap)
	m["allocs_per_cycle"] = median(allocs)
	m["pkt_latency_cycles"] = res.Summary.AvgLatency
	m["static_energy_pct"] = 100 * (1 - res.StaticSaved)
	m["exec_cycles"] = float64(plain[0].exec)
}

// perLayer fills the per-layer metrics: CPU shares from the traced
// trials' profile, span timings from the tracer, simulated counts from
// the result, host-time rates from the untraced trials.
func (r *result) perLayer(plain, traced []*trial, tr *tracer, share map[string]float64, probe *obs.Counters) {
	t := plain[0]
	res, d := t.res, t.res.Detail
	nodes := float64(r.w.width * r.w.width)
	pkts := float64(d.Stages.Packets)
	m := map[string]float64{}
	for _, l := range layers {
		if strings.HasPrefix(l, "network.") {
			m[l+"_share"] = share[l]
		} else {
			m[l+".share"] = share[l]
		}
	}
	var active []float64
	for _, p := range traced {
		for _, a := range p.active {
			active = append(active, float64(a))
		}
	}
	m["router.flit_hops_per_cycle"] = ratio(float64(t.hops), float64(t.windowCycles))
	win, twin := sumWindows(plain), sumWindows(traced)
	m["router.ns_per_flit_hop"] = ratio(1e9*win.secs, win.hops)
	m["router.pg_stall_cycles_per_pkt"] = ratio(float64(d.PG.StallCycles), pkts)
	m["ni.queue_cycles_per_pkt"] = ratio(float64(d.Stages.NIQueueCycles), pkts)
	m["ni.wakeup_wait_cycles_per_pkt"] = ratio(float64(d.Stages.WakeupNICycles), pkts)
	m["core.source_emissions"] = float64(d.Punch.SourceEmissions)
	m["core.relayed_targets"] = float64(d.Punch.RelayedTargets)
	m["core.channel_cycles"] = float64(d.Punch.ChannelCycles)
	m["core.strict_drops"] = float64(d.Punch.StrictDrops)
	m["pg.gating_events"] = float64(d.PG.GatingEvents)
	m["pg.gated_frac"] = ratio(float64(d.PG.GatedCycles), nodes*float64(res.Cycles))
	m["pg.short_gating_frac"] = ratio(float64(d.PG.ShortGatings), float64(d.PG.GatingEvents))
	m["pg.wakeups_punch_frac"] = ratio(float64(d.PG.WakeupsPunch), float64(d.PG.WakeupsPunch+d.PG.WakeupsWU))
	m["pg.sleeps_blocked"] = float64(d.PG.SleepsBlocked)
	m["pg.wake_hidden_frac"] = probe.HiddenFraction()
	m["pg.wakeup_net_cycles_per_pkt"] = ratio(float64(d.Stages.WakeupNetCycles), pkts)
	steps := tr.durations(spanStep)
	m["network.step_ns_p50"] = quantile(steps, 0.5)
	m["network.step_ns_p99"] = quantile(steps, 0.99)
	m["network.active_routers_mean"] = mean(active)
	m["traffic.tick_ns_p50"] = orZero(quantile(tr.durations(spanTraffic), 0.5))
	m["cmp.tick_ns_p50"] = orZero(quantile(tr.durations(spanCMP), 0.5))
	m["cmp.stall_cycles_per_core"] = float64(t.stall) / nodes
	m["runtime.gc_per_mcycle"] = ratio(1e6*win.gcs, win.cycles)
	m["runtime.window_allocs_per_cycle"] = ratio(win.allocs, win.cycles)
	m["obs.trace_overhead_pct"] = 100 * (ratio(win.cycles, win.secs)/ratio(twin.cycles, twin.secs) - 1)
	r.layer = m
}

// orZero maps the NaN of an empty sample set to 0: a layer the workload
// never calls.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// stressFindings checks that each workload still loads the layers it was
// chosen for. A finding is reported, not counted as a failed run: a
// change that makes a layer cheaper may rightly move its share.
func stressFindings(w *workload, m map[string]float64) []string {
	var f []string
	switch w.name {
	case "nopg-8x8-high":
		if m["router.share"] < 0.5 {
			f = append(f, fmt.Sprintf("router.share %.3f < 0.5", m["router.share"]))
		}
		if s := m["core.share"] + m["pg.share"]; s >= 0.02 {
			f = append(f, fmt.Sprintf("core.share + pg.share %.3f >= 0.02", s))
		}
	case "punch-8x8-low":
		if m["core.share"] < 0.10 {
			f = append(f, fmt.Sprintf("core.share %.3f < 0.10", m["core.share"]))
		}
	}
	if par := m["network.par_share"]; (par > 0) != (w.workers > 1) {
		f = append(f, fmt.Sprintf("network.par_share %.3f with Workers=%d", par, w.workers))
	}
	return f
}

// writeTrace stores the traced run's spans, CPU profile and layer table
// under outDir/<workload>.
func (r *result) writeTrace(outDir string, tr *tracer, prof []byte) error {
	dir := filepath.Join(outDir, r.w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(dir, "spans.csv.gz")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Host     host               `json:"host"`
		Samples  int64              `json:"profile_samples"`
		Layers   map[string]float64 `json:"layers"`
		Stress   []string           `json:"stress_findings"`
	}{r.w.name, r.host, r.samples, r.layer, r.stress}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}
