package powerpunch_test

import (
	"fmt"
	"strings"
	"testing"

	"powerpunch"
	"powerpunch/internal/traffic"
)

// runSynthetic builds a network for cfg, drives it with seeded
// synthetic traffic, and returns the run result plus the per-router
// report fingerprint.
func runSynthetic(t *testing.T, cfg powerpunch.Config, pat powerpunch.TrafficPattern, load float64) (powerpunch.RunResult, string) {
	t.Helper()
	net, err := powerpunch.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res := net.Run(powerpunch.NewSyntheticTraffic(pat, load, 11))
	return res, net.Report().String()
}

// TestParallelMatchesSerial is the golden differential suite for the
// occupancy engine, anchored on the one reference: for every scheme, on
// every fabric, the FullTick seed walk is run directly, and the engine
// at 0 (one home, inline), 2, 4, and 8 workers must each produce a
// RunResult (Detail included — the full floating-point energy breakdown
// and exact stage decomposition) and a per-router report == to it. The
// "full" legs pin that FullTick ignores Workers: the walk at 2, 4, and
// 8 workers equals the walk at 0. The worker runs also enable packet
// recycling, proving the pooled hot path is invisible to results.
func TestParallelMatchesSerial(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 4, 4},
		{"torus", 4, 4},
		{"ring", 8, 1},
	}
	patterns := []struct {
		name string
		p    powerpunch.TrafficPattern
		load float64
	}{
		{"uniform-0.30", powerpunch.Uniform(), 0.30},
		{"uniform-0.02", powerpunch.Uniform(), 0.02},
		// Hotspot concentrates ejections on one shard, exercising the
		// cross-worker flit-return path of the per-worker pools.
		{"hotspot-0.30", traffic.Hotspot{Node: 5, Frac: 0.5}, 0.30},
	}

	for _, fab := range fabrics {
		for _, s := range powerpunch.Schemes {
			for _, fullTick := range []bool{false, true} {
				for _, pat := range patterns {
					if pat.name == "hotspot-0.30" && (fab.topo != "mesh" || fullTick) {
						continue // one hotspot config is enough for pool routing
					}
					fab, s, fullTick, pat := fab, s, fullTick, pat
					sched := "active"
					workers := []int{0, 2, 4, 8}
					if fullTick {
						sched = "full"
						workers = []int{2, 4, 8}
					}
					name := fmt.Sprintf("%s/%s/%s/%s", fab.topo, s, sched, pat.name)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := powerpunch.DefaultConfig()
						cfg.Scheme = s
						cfg.Topology = fab.topo
						cfg.Width, cfg.Height = fab.width, fab.height
						cfg.WarmupCycles = 300
						cfg.MeasureCycles = 1500

						rcfg := cfg
						rcfg.FullTick = true
						ref, refRep := runSynthetic(t, rcfg, pat.p, pat.load)
						if ref.Summary.Ejected == 0 {
							t.Fatalf("degenerate run, nothing ejected: %+v", ref)
						}
						for _, w := range workers {
							pcfg := cfg
							pcfg.FullTick = fullTick
							pcfg.Workers = w
							pcfg.RecyclePackets = true
							got, gotRep := runSynthetic(t, pcfg, pat.p, pat.load)
							if got != ref {
								t.Errorf("%s workers=%d result differs from the FullTick reference:\nreference %+v\ngot       %+v",
									sched, w, ref, got)
							}
							if gotRep != refRep {
								t.Errorf("%s workers=%d per-router reports differ:\nreference:\n%s\ngot:\n%s",
									sched, w, refRep, gotRep)
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelEnergyComponentsBitIdentical is the per-component energy
// model's engine-invariance claim, spelled out: on mesh and torus, for
// every scheme, the parallel engine at 2, 4, and 8 workers must
// reproduce the serial engine's RunDetail.Energy exactly — not within
// tolerance, with == on every component's dynamic/static/overhead
// float — because the breakdown is derived from folded integer event
// counters, which commute across shard interleavings.
func TestParallelEnergyComponentsBitIdentical(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 4, 4},
		{"torus", 4, 4},
	}
	for _, fab := range fabrics {
		for _, s := range powerpunch.Schemes {
			fab, s := fab, s
			t.Run(fmt.Sprintf("%s/%s", fab.topo, s), func(t *testing.T) {
				t.Parallel()
				cfg := powerpunch.DefaultConfig()
				cfg.Scheme = s
				cfg.Topology = fab.topo
				cfg.Width, cfg.Height = fab.width, fab.height
				cfg.WarmupCycles = 200
				cfg.MeasureCycles = 1200

				serial, _ := runSynthetic(t, cfg, powerpunch.Uniform(), 0.25)
				se := serial.Detail.Energy
				if se.Total() == 0 {
					t.Fatal("serial run accumulated no component energy")
				}
				if se.Buffer.Dynamic == 0 || se.Buffer.Static == 0 {
					t.Errorf("buffer component missing energy: %+v", se.Buffer)
				}
				for _, workers := range []int{2, 4, 8} {
					pcfg := cfg
					pcfg.Workers = workers
					par, _ := runSynthetic(t, pcfg, powerpunch.Uniform(), 0.25)
					if pe := par.Detail.Energy; pe != se {
						t.Errorf("workers=%d per-component energy differs from serial:\nserial   %+v\nparallel %+v",
							workers, se, pe)
					}
				}
			})
		}
	}
}

// TestParallelObservedIsGoldenIdentical proves the engine's deferred
// event replay reproduces the FullTick reference's event stream exactly:
// an attached counters probe (which tallies every event kind per node
// and derives latency splits from event payloads) must render the
// identical report, the JSONL traces must match byte for byte, and
// attaching the observer must not perturb the run result. The "active"
// leg runs the engine at 0 workers (one home, lane buses kept) and 4,
// the "full" leg FullTick at 4 workers (which ignores Workers, so no
// lane bus is installed).
func TestParallelObservedIsGoldenIdentical(t *testing.T) {
	for _, s := range []powerpunch.Scheme{powerpunch.ConvOptPG, powerpunch.PowerPunchPG} {
		for _, fullTick := range []bool{false, true} {
			s, fullTick := s, fullTick
			sched := "active"
			if fullTick {
				sched = "full"
			}
			t.Run(fmt.Sprintf("%s/%s", s, sched), func(t *testing.T) {
				t.Parallel()
				run := func(workers int, fullTick bool) (powerpunch.RunResult, string, string) {
					cfg := powerpunch.DefaultConfig()
					cfg.Scheme = s
					cfg.Width, cfg.Height = 4, 4
					cfg.WarmupCycles = 300
					cfg.MeasureCycles = 1500
					cfg.FullTick = fullTick
					cfg.Workers = workers
					probe := powerpunch.NewCountersProbe()
					var trace strings.Builder
					tw := powerpunch.NewEventTraceWriter(&trace)
					net, err := powerpunch.NewNetwork(cfg, powerpunch.WithObserver(probe, tw))
					if err != nil {
						t.Fatal(err)
					}
					defer net.Close()
					res := net.Run(powerpunch.NewSyntheticTraffic(powerpunch.Uniform(), 0.30, 11))
					if err := tw.Flush(); err != nil {
						t.Fatal(err)
					}
					var rep strings.Builder
					if err := probe.WriteReport(&rep); err != nil {
						t.Fatal(err)
					}
					return res, rep.String(), trace.String()
				}
				ref, refProbe, refTrace := run(0, true)
				workers := []int{0, 4}
				if fullTick {
					workers = []int{4}
				}
				for _, w := range workers {
					got, gotProbe, gotTrace := run(w, fullTick)
					if got != ref {
						t.Errorf("workers=%d observed result differs:\nreference %+v\ngot       %+v", w, ref, got)
					}
					if gotProbe != refProbe {
						t.Errorf("workers=%d probe reports differ:\nreference:\n%s\ngot:\n%s", w, refProbe, gotProbe)
					}
					// The full JSONL event trace compares every event's
					// kind, node, cycle stamp, AND payload fields — the
					// strictest replay-order check available.
					if gotTrace != refTrace {
						t.Errorf("workers=%d full event trace differs from the reference", w)
					}
				}
			})
		}
	}
}

// TestParallelWithChecks runs the parallel engine with the invariant
// engine attached (which disables flit pooling and observes every NI)
// and requires bit-identical results to the serial checked run — and no
// violations from either.
func TestParallelWithChecks(t *testing.T) {
	for _, s := range []powerpunch.Scheme{powerpunch.PowerPunchSignal, powerpunch.PowerPunchPG} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (powerpunch.RunResult, string) {
				cfg := powerpunch.DefaultConfig()
				cfg.Scheme = s
				cfg.Width, cfg.Height = 4, 4
				cfg.WarmupCycles = 200
				cfg.MeasureCycles = 800
				cfg.Checks = true
				cfg.Workers = workers
				return runSynthetic(t, cfg, powerpunch.Uniform(), 0.30)
			}
			serial, serialRep := run(0)
			for _, workers := range []int{2, 8} {
				par, parRep := run(workers)
				if par != serial {
					t.Errorf("checked workers=%d result differs:\nserial   %+v\nparallel %+v",
						workers, serial, par)
				}
				if parRep != serialRep {
					t.Errorf("checked workers=%d reports differ", workers)
				}
			}
		})
	}
}

// TestParallelWorkloadDeliver exercises the deferred-Deliver path: a
// full-system CMP workload delivers every ejected packet to its
// coherence protocol handler, whose follow-up submissions (with fresh
// packet IDs) must observe the serial engine's exact callback order.
func TestParallelWorkloadDeliver(t *testing.T) {
	for _, s := range []powerpunch.Scheme{powerpunch.ConvOptPG, powerpunch.PowerPunchPG} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (powerpunch.RunResult, int64) {
				prof, err := powerpunch.PARSECProfile("swaptions", 2000)
				if err != nil {
					t.Fatal(err)
				}
				cfg := powerpunch.DefaultConfig()
				cfg.Scheme = s
				cfg.Width, cfg.Height = 4, 4
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = 1 << 40
				cfg.Workers = workers
				net, err := powerpunch.NewNetwork(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				wl := powerpunch.NewWorkload(prof, net, 1)
				res := net.RunUntil(wl, 300_000)
				if !res.Drained {
					t.Fatal("workload incomplete")
				}
				return res, wl.ExecutionTime()
			}
			serial, serialExec := run(0)
			par, parExec := run(4)
			if par != serial || parExec != serialExec {
				t.Errorf("workload differs:\nserial   %+v exec=%d\nparallel %+v exec=%d",
					serial, serialExec, par, parExec)
			}
		})
	}
}
