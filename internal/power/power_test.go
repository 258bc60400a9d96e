package power

import (
	"math"
	"testing"
)

func TestBreakEvenIdentity(t *testing.T) {
	// The defining property of the break-even time: the overhead of one
	// gating event equals BET cycles of leakage. Gating for exactly BET
	// cycles is therefore energy-neutral.
	c := DefaultConstants()
	if got, want := c.EGatingOverhead(), float64(c.BreakEvenCycles)*c.EStaticCycle(); math.Abs(got-want) > 1e-18 {
		t.Errorf("EGatingOverhead = %g, want %g", got, want)
	}
}

func TestGatingForBreakEvenCyclesIsEnergyNeutral(t *testing.T) {
	c := DefaultConstants()

	// Router A: stays on for BET cycles. Router B: gated for BET cycles,
	// then charged one gating event. Net static+overhead must be equal.
	a, b := NewAccountant(1, c), NewAccountant(1, c)
	a.SetEnabled(true)
	b.SetEnabled(true)
	for i := 0; i < c.BreakEvenCycles; i++ {
		a.TickStatic(0, On)
		b.TickStatic(0, Gated)
	}
	b.GatingEvent(0)
	eA, eB := a.Network(), b.Network()
	if math.Abs((eA.Static+eA.Overhead)-(eB.Static+eB.Overhead)) > 1e-18 {
		t.Errorf("break-even violated: on=%g gated=%g", eA.Static+eA.Overhead, eB.Static+eB.Overhead)
	}
}

func TestDisabledAccountantChargesNothing(t *testing.T) {
	a := NewAccountant(1, DefaultConstants())
	a.TickStatic(0, On)
	a.TickStaticN(0, Gated, 5)
	a.BufferWrite(0)
	a.Traverse(0)
	a.LinkHop(0)
	a.PunchHop(0)
	a.WakeupSignal(0)
	a.GatingEvent(0)
	a.TickCycle()
	if tot := a.Network().Total(); tot != 0 {
		t.Errorf("disabled accountant accumulated %g J", tot)
	}
	if a.Cycles() != 0 {
		t.Error("disabled accountant counted cycles")
	}
}

func TestEventEnergies(t *testing.T) {
	c := DefaultConstants()
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	a.BufferWrite(0)
	a.Traverse(0)
	a.LinkHop(0)
	want := c.EBufferWrite + c.EBufferRead + c.EArbitration + c.ECrossbar + c.ELink
	if got := a.Network().Dynamic; math.Abs(got-want) > 1e-18 {
		t.Errorf("dynamic = %g, want %g", got, want)
	}
	if a.Count(EvBufferWrite) != 1 || a.Count(EvBufferRead) != 1 ||
		a.Count(EvArbitration) != 1 || a.Count(EvCrossbar) != 1 || a.Count(EvLink) != 1 {
		t.Error("event counters")
	}
}

func TestWakingLeaksLikeOn(t *testing.T) {
	on, waking := NewAccountant(1, DefaultConstants()), NewAccountant(1, DefaultConstants())
	on.SetEnabled(true)
	waking.SetEnabled(true)
	on.TickStatic(0, On)
	waking.TickStatic(0, WakingUp)
	if on.Network() != waking.Network() {
		t.Error("a waking router must leak like a powered-on one")
	}
}

func TestGatedLeakFraction(t *testing.T) {
	c := DefaultConstants()
	c.GatedLeakFrac = 0.1
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	a.TickStatic(0, Gated)
	want := 0.1 * c.EStaticCycle()
	if got := a.Network().Static; math.Abs(got-want) > 1e-20 {
		t.Errorf("gated leak = %g, want %g", got, want)
	}
}

// TestTickStaticNMatchesPerCycleRule pins the scheduler's catch-up
// charge: n cycles in one call count exactly what n TickStatic calls
// would. The 1<<40 case finishes only because the call does no per-cycle
// work.
func TestTickStaticNMatchesPerCycleRule(t *testing.T) {
	for _, s := range []RouterState{On, Gated, WakingUp} {
		stateEv := EvOnCycle
		if s == Gated {
			stateEv = EvGatedCycle
		}

		perCycle, batched := NewAccountant(1, DefaultConstants()), NewAccountant(1, DefaultConstants())
		perCycle.SetEnabled(true)
		batched.SetEnabled(true)
		for i := 0; i < 7; i++ {
			perCycle.TickStatic(0, s)
		}
		batched.TickStaticN(0, s, 7)
		if perCycle.Components() != batched.Components() {
			t.Errorf("state %d: TickStaticN(7) != 7 x TickStatic", s)
		}

		const n = int64(1) << 40
		batched.TickStaticN(0, s, n)
		batched.TickStaticN(0, s, 0)
		batched.TickStaticN(0, s, -3)
		if got := batched.Count(stateEv); got != n+7 {
			t.Errorf("state %d: count %d, want %d", s, got, n+7)
		}
		for ev := Event(0); ev < numEvents; ev++ {
			if ev != stateEv && batched.Count(ev) != 0 {
				t.Errorf("state %d: event %d counted %d, want 0", s, ev, batched.Count(ev))
			}
		}
	}
}

func TestStaticSavedFrac(t *testing.T) {
	c := DefaultConstants()
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	// 100 cycles: 25 on, 75 gated, no overhead => 75% saved.
	for i := 0; i < 100; i++ {
		if i < 25 {
			a.TickStatic(0, On)
		} else {
			a.TickStatic(0, Gated)
		}
		a.TickCycle()
	}
	if got := a.StaticSavedFrac(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("StaticSavedFrac = %g, want 0.75", got)
	}
}

func TestAvgStaticPowerAlwaysOn(t *testing.T) {
	// A single always-on router's average static power equals its
	// leakage power.
	c := DefaultConstants()
	a := NewAccountant(1, c)
	a.SetEnabled(true)
	for i := 0; i < 1000; i++ {
		a.TickStatic(0, On)
		a.TickCycle()
	}
	if got := a.AvgStaticPower(); math.Abs(got-c.PStaticRouter) > 1e-9 {
		t.Errorf("AvgStaticPower = %g, want %g", got, c.PStaticRouter)
	}
}

func TestBreakdownAdd(t *testing.T) {
	b := Breakdown{Dynamic: 1, Static: 2, Overhead: 3}
	b.Add(Breakdown{Dynamic: 10, Static: 20, Overhead: 30})
	if b.Dynamic != 11 || b.Static != 22 || b.Overhead != 33 || b.Total() != 66 {
		t.Errorf("Add/Total: %+v", b)
	}
}

func TestNetworkAggregates(t *testing.T) {
	a := NewAccountant(3, DefaultConstants())
	a.SetEnabled(true)
	a.BufferWrite(0)
	a.BufferWrite(1)
	a.BufferWrite(2)
	want := 3 * a.C.EBufferWrite
	if got := a.Network().Dynamic; math.Abs(got-want) > 1e-18 {
		t.Errorf("network dynamic = %g, want %g", got, want)
	}
}

func TestZeroCycleGuards(t *testing.T) {
	a := NewAccountant(1, DefaultConstants())
	if a.AvgStaticPower() != 0 || a.StaticSavedFrac() != 0 {
		t.Error("zero-cycle accountant must report zeros, not NaN")
	}
}

func TestPresetRegistry(t *testing.T) {
	names := Presets()
	if len(names) < 2 {
		t.Fatalf("expected multiple presets, got %v", names)
	}
	seen := false
	for _, n := range names {
		c, ok := PresetByName(n)
		if !ok {
			t.Fatalf("Presets lists %q but PresetByName rejects it", n)
		}
		if c.CycleTime <= 0 || c.PStaticRouter <= 0 {
			t.Errorf("preset %q has degenerate constants: %+v", n, c)
		}
		// The static apportionment must sum to 1 so the per-component
		// static energies add up to the router's whole leakage.
		sum := c.StaticFracBuffer + c.StaticFracCrossbar + c.StaticFracAlloc + c.StaticFracClock
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("preset %q static fractions sum to %g, want 1", n, sum)
		}
		if n == DefaultPreset {
			seen = true
			if c != DefaultConstants() {
				t.Errorf("preset %q must be exactly DefaultConstants (the golden suite pins it)", n)
			}
		}
	}
	if !seen {
		t.Fatalf("default preset %q missing from %v", DefaultPreset, names)
	}
	if c, ok := PresetByName(""); !ok || c != DefaultConstants() {
		t.Error("empty name must select the default preset")
	}
	if _, ok := PresetByName("no-such-preset"); ok {
		t.Error("unknown preset accepted")
	}
}

func TestComponentNames(t *testing.T) {
	names := ComponentNames()
	if len(names) != int(NumComponents) {
		t.Fatalf("ComponentNames has %d entries, want %d", len(names), NumComponents)
	}
	uniq := map[string]bool{}
	for _, n := range names {
		if n == "" || n == "component?" || uniq[n] {
			t.Errorf("bad or duplicate component name %q", n)
		}
		uniq[n] = true
	}
}

// chargeScript drives a fixed mixed workload against an accountant:
// every event kind on a spread of routers, so every class accumulates
// a nontrivial value. It returns the same charges summed per event in
// float, the per-event model the counter-derived view must reproduce.
func chargeScript(a *Accountant, routers int) Breakdown {
	c := a.C
	var want Breakdown
	a.SetEnabled(true)
	for cyc := 0; cyc < 200; cyc++ {
		for r := 0; r < routers; r++ {
			st := On
			if (r+cyc)%3 == 0 {
				st = Gated
			}
			a.TickStatic(r, st)
			if st == Gated {
				want.Static += c.GatedLeakFrac * c.EStaticCycle()
			} else {
				want.Static += c.EStaticCycle()
				want.Dynamic += c.EClockCycle
			}
			if (r+cyc)%2 == 0 {
				a.BufferWrite(r)
				want.Dynamic += c.EBufferWrite
			}
			if (r+cyc)%4 == 0 {
				a.Traverse(r)
				a.LinkHop(r)
				want.Dynamic += c.EBufferRead + c.EArbitration + c.ECrossbar + c.ELink
			}
			if (r+cyc)%7 == 0 {
				a.PunchHop(r)
				want.Overhead += c.EPunchHop
			}
			if (r+cyc)%11 == 0 {
				a.WakeupSignal(r)
				want.Overhead += c.EWakeupSignal
			}
			if (r+cyc)%13 == 0 {
				a.GatingEvent(r)
				want.Overhead += c.EGatingOverhead()
			}
		}
		a.TickCycle()
	}
	return want
}

// TestComponentsReconcileWithAggregate checks the counter-derived
// energies against the per-event float sum of the same charges: the
// per-component class sums (and Network, which is them) must match it
// within summation tolerance, for every preset (including ones with
// clock dynamic energy and residual gated leak).
func TestComponentsReconcileWithAggregate(t *testing.T) {
	for _, name := range Presets() {
		c, _ := PresetByName(name)
		t.Run(name, func(t *testing.T) {
			a := NewAccountant(16, c)
			want := chargeScript(a, 16)
			comp := a.Components()
			got := comp.Classes()
			if a.Network() != got {
				t.Errorf("Network() = %+v, component class sums %+v", a.Network(), got)
			}
			for _, pair := range []struct {
				label     string
				got, want float64
			}{
				{"dynamic", got.Dynamic, want.Dynamic},
				{"static", got.Static, want.Static},
				{"overhead", got.Overhead, want.Overhead},
				{"total", comp.Total(), want.Total()},
			} {
				if relDiff(pair.got, pair.want) > 1e-9 {
					t.Errorf("%s: components=%g per-event sum=%g", pair.label, pair.got, pair.want)
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// TestLaneFoldBitIdentical is the table-driven lane-folding proof at
// the accountant level: the same charge stream applied through 2/4/8
// lanes (with routers distributed round-robin) folds to counters — and
// therefore a per-component breakdown — bit-identical to the serial
// path.
func TestLaneFoldBitIdentical(t *testing.T) {
	const routers = 16
	serial := NewAccountant(routers, DefaultConstants())
	chargeScript(serial, routers)
	want := serial.Components()

	for _, lanes := range []int{2, 4, 8} {
		a := NewAccountant(routers, DefaultConstants())
		laneOf := make([]int32, routers)
		for r := range laneOf {
			laneOf[r] = int32(r % lanes)
		}
		a.SetLanes(laneOf, lanes)
		chargeScript(a, routers)
		a.FoldLanes()
		if got := a.Components(); got != want {
			t.Errorf("lanes=%d: per-component breakdown diverged from serial\n got=%+v\nwant=%+v", lanes, got, want)
		}
		for ev := Event(0); ev < numEvents; ev++ {
			if a.Count(ev) != serial.Count(ev) {
				t.Errorf("lanes=%d: event %d count %d != serial %d", lanes, ev, a.Count(ev), serial.Count(ev))
			}
		}
		// Folding again must be a no-op (lanes were zeroed).
		a.FoldLanes()
		if got := a.Components(); got != want {
			t.Errorf("lanes=%d: second fold changed the breakdown", lanes)
		}
	}
}
