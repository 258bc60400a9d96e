package experiments

import (
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/power"
)

// TestEnergyComponentsReconcileWithAggregate pins the single energy
// path end to end: for every benchmark x scheme of the full-system
// comparison, the aggregate RunResult.Energy is exactly — compared with
// == — the class sums of the per-component RunResult.Detail.Energy,
// because both are derived from the same folded event counters. The
// aggregate is seed-locked by the golden suite, so this pins the
// component taxonomy to the paper's numbers without duplicating them.
func TestEnergyComponentsReconcileWithAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system grid is slow")
	}
	results, err := RunFullSystem(FullSystemOptions{
		Fidelity:     Quick,
		Seed:         1,
		InstrPerCore: 3_000, // the grid matters, not the run length
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range results {
		for _, s := range config.Schemes {
			m := br.PerScheme[s]
			var sums power.Breakdown
			for c := power.Component(0); c < power.NumComponents; c++ {
				ce := m.Components.Component(c)
				sums.Add(power.Breakdown{Dynamic: ce.Dynamic, Static: ce.Static, Overhead: ce.Overhead})
			}
			if sums != m.Energy {
				t.Errorf("%s/%v: component class sums %+v != aggregate %+v", br.Bench, s, sums, m.Energy)
			}
			if m.Components.Version != 1 {
				t.Errorf("%s/%v: energy breakdown version = %d, want 1", br.Bench, s, m.Components.Version)
			}
			if m.Energy.Total() > 0 && m.Components.Total() == 0 {
				t.Errorf("%s/%v: aggregate energy %.3e but component view is empty", br.Bench, s, m.Energy.Total())
			}
		}
	}
}
