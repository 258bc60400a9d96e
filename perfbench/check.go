package main

import (
	"fmt"

	"powerpunch/internal/network"
)

// outcome is a run's simulated result, the part that must repeat exactly
// under a fixed seed.
type outcome struct {
	from string // where the expected outcome came from
	res  network.RunResult
	exec int64
}

func (t *trial) outcome(from string) *outcome {
	return &outcome{from: from, res: t.res, exec: t.exec}
}

// tally counts the runs whose outputs were checked and the runs that
// failed a check.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(run string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		t.problems = append(t.problems, run+": "+p)
	}
}

// checkTrial returns every way a trial's output is wrong: the network did
// not drain, packets or flits were not conserved, the NI backlog grew
// across the window, or the result differs from one of wants.
func checkTrial(t *trial, nodes int, wants ...*outcome) []string {
	var p []string
	if !t.res.Drained {
		p = append(p, fmt.Sprintf("did not drain by cycle %d", t.res.Cycles))
	}
	if s := t.res.Summary; s.Injected != s.Ejected || t.inFlight != 0 {
		p = append(p, fmt.Sprintf("packets not conserved: %d injected, %d ejected, %d in flight",
			s.Injected, s.Ejected, t.inFlight))
	}
	if t.flitsIn != t.flitsOut {
		p = append(p, fmt.Sprintf("flits not conserved: %d injected, %d ejected", t.flitsIn, t.flitsOut))
	}
	if early, late, grows := backlogGrowth(t.backlog, nodes); grows {
		p = append(p, fmt.Sprintf("NI backlog grows across the window: mean %.1f in the first quarter, %.1f in the last", early, late))
	}
	for _, want := range wants {
		if t.res != want.res || t.exec != want.exec {
			p = append(p, fmt.Sprintf("result differs from %s: latency %v vs %v, cycles %d vs %d, exec %d vs %d",
				want.from, t.res.Summary.AvgLatency, want.res.Summary.AvgLatency,
				t.res.Cycles, want.res.Cycles, t.exec, want.exec))
		}
	}
	return p
}

// backlogGrowth compares the mean NI backlog over the first and last
// quarters of the window. An open-loop injector below saturation keeps
// the backlog bounded; above it the backlog grows without limit, so the
// last quarter would hold more than twice the first plus a quarter
// message per node.
func backlogGrowth(samples []int, nodes int) (early, late float64, grows bool) {
	n := len(samples) / 4
	if n == 0 {
		return 0, 0, false
	}
	mean := func(s []int) float64 {
		sum := 0
		for _, v := range s {
			sum += v
		}
		return float64(sum) / float64(len(s))
	}
	early, late = mean(samples[:n]), mean(samples[len(samples)-n:])
	return early, late, late > 2*early+float64(nodes)/4
}
