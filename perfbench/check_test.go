package main

import (
	"encoding/json"
	"os"
	"testing"

	"powerpunch/internal/network"
	"powerpunch/internal/stats"
)

// goodTrial is a drained, conserving run with a flat NI backlog.
func goodTrial() *trial {
	return &trial{
		res: network.RunResult{
			Cycles:  1000,
			Drained: true,
			Summary: stats.Summary{Injected: 40, Ejected: 40, AvgLatency: 30},
		},
		exec:     1000,
		backlog:  []int{2, 1, 3, 2, 2, 1, 2, 3},
		flitsIn:  120,
		flitsOut: 120,
	}
}

func TestFailedRunsAreCounted(t *testing.T) {
	const nodes = 64
	want := goodTrial().outcome("the reference")

	mismatched := goodTrial()
	mismatched.res.Summary.AvgLatency = 31

	undrained := goodTrial()
	undrained.res.Drained = false
	undrained.res.Summary.Ejected = 38
	undrained.inFlight = 2
	undrained.flitsOut = 110

	growing := goodTrial()
	growing.backlog = []int{1, 2, 3, 5, 10, 20, 40, 80}

	cases := []struct {
		name string
		t    *trial
		fail bool
	}{
		{"good", goodTrial(), false},
		{"mismatched result", mismatched, true},
		{"undrained", undrained, true},
		{"growing backlog", growing, true},
	}
	var all tally
	for _, c := range cases {
		var one tally
		one.add(c.name, checkTrial(c.t, nodes, want))
		all.add(c.name, checkTrial(c.t, nodes, want))
		if got := one.failed == 1; got != c.fail {
			t.Errorf("%s: counted as failed = %v, want %v (problems %q)", c.name, got, c.fail, one.problems)
		}
	}
	if all.attempted != 4 || all.failed != 3 {
		t.Errorf("tally: %d attempted, %d failed; want 4 and 3 (problems %q)", all.attempted, all.failed, all.problems)
	}
}

func TestBacklogBelowSaturationIsNotGrowth(t *testing.T) {
	// A bounded queue that fluctuates, as at 0.30 on the 8x8 mesh.
	samples := []int{30, 45, 28, 50, 33, 41, 29, 47, 36, 44, 31, 52}
	if early, late, grows := backlogGrowth(samples, 64); grows {
		t.Errorf("bounded backlog (%.1f then %.1f) counted as growing", early, late)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []frame
		want   string
	}{
		{[]frame{{"powerpunch/internal/router.(*Router).stepST", "router.go"}}, "router"},
		{[]frame{{"runtime.mallocgc", "malloc.go"}, {"powerpunch/internal/ni.(*NI).Submit", "ni.go"}}, "runtime"},
		{[]frame{{"math/rand.(*Rand).Float64", "rand.go"}, {"powerpunch/internal/traffic.(*Synthetic).Tick", "traffic.go"}}, "traffic"},
		{[]frame{{"powerpunch/internal/network.(*scheduler).next", "/src/internal/network/sched.go"}}, "network.sched"},
		{[]frame{{"powerpunch/internal/network.(*parEngine).step", "/src/internal/network/par.go"}}, "network.par"},
		{[]frame{{"powerpunch/internal/network.(*Network).stepActive", "/src/internal/network/network.go"}}, "network.step"},
		{[]frame{{"powerpunch/internal/mesh.(*Mesh).Coord", "mesh.go"}}, "topo"},
		{[]frame{{"powerpunch/internal/parsec.Profile", "parsec.go"}}, "cmp"},
		{[]frame{{"powerpunch/internal/flit.(*Pool).Get", "flit.go"}}, "other"},
		{[]frame{{"time.now", "time.go"}, {"main.(*tracer).add", "trace.go"}}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metric
// tables the benchmark prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	// BENCHMARK.json may leave out a workload too noisy to gate on.
	for _, got := range doc.Workloads {
		w, err := workloadByName(got.Name)
		if err != nil {
			t.Error(err)
		} else if got.Why != w.why {
			t.Errorf("%s: BENCHMARK.json says %q, the benchmark %q", got.Name, got.Why, w.why)
		}
	}
}
