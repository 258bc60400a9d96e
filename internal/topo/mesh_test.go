package topo

import (
	"errors"
	"testing"
	"testing/quick"

	"powerpunch/internal/mesh"
)

// The mesh XY routing function's path properties, on the paper's 8x8
// mesh. quickPair maps two random bytes to a node pair on it.
func quickPair(g Topology, aRaw, bRaw uint8) (mesh.NodeID, mesh.NodeID) {
	return mesh.NodeID(int(aRaw) % g.NumNodes()), mesh.NodeID(int(bRaw) % g.NumNodes())
}

func TestPathPaperExample(t *testing.T) {
	// Section 4.1 step 1: a packet at R26 destined to R31 targets R29;
	// the path runs along the row.
	rf := mustBuild(t, "mesh", 8, 8)
	want := []mesh.NodeID{26, 27, 28, 29, 30, 31}
	got := Path(rf, 26, 31)
	if len(got) != len(want) {
		t.Fatalf("Path(26,31) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(26,31) = %v, want %v", got, want)
		}
	}
	if tr := Ahead(rf, 26, 31, 3); tr != 29 {
		t.Errorf("Ahead(26,31,3) = %d, want 29 (paper targeted router)", tr)
	}
}

func TestAheadClampsAtDestination(t *testing.T) {
	rf := mustBuild(t, "mesh", 8, 8)
	if got := Ahead(rf, 26, 28, 3); got != 28 {
		t.Errorf("Ahead(26,28,3) = %d, want 28", got)
	}
	if got := Ahead(rf, 5, 5, 3); got != 5 {
		t.Errorf("Ahead(5,5,3) = %d, want 5", got)
	}
	if got := Ahead(rf, 10, 50, 0); got != 10 {
		t.Errorf("Ahead(_,_,0) must be cur")
	}
}

func TestPathLengthEqualsManhattanDistance(t *testing.T) {
	// Property: XY is minimal — a path has |dx|+|dy| hops, and
	// HopsRemaining reports the same count.
	rf := mustBuild(t, "mesh", 8, 8)
	g := rf.Topology()
	f := func(aRaw, bRaw uint8) bool {
		a, b := quickPair(g, aRaw, bRaw)
		ac, bc := g.CoordOf(a), g.CoordOf(b)
		manhattan := max(ac.X-bc.X, bc.X-ac.X) + max(ac.Y-bc.Y, bc.Y-ac.Y)
		return len(Path(rf, a, b)) == manhattan+1 && HopsRemaining(rf, a, b) == manhattan
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPathSuffixProperty(t *testing.T) {
	// Property underlying punch relays (Section 4.1 step 2): for any
	// node M on the XY path from S to D, the XY path from M to D is the
	// suffix of the original path. Punches can therefore be re-routed at
	// every relay with plain XY and still follow the packet's path.
	rf := mustBuild(t, "mesh", 8, 8)
	f := func(aRaw, bRaw uint8) bool {
		a, b := quickPair(rf.Topology(), aRaw, bRaw)
		p := Path(rf, a, b)
		for i, node := range p {
			sub := Path(rf, node, b)
			if len(sub) != len(p)-i {
				return false
			}
			for j := range sub {
				if sub[j] != p[i+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPathsUseOnlyLegalTurns(t *testing.T) {
	// Property: XY paths never take a Y-to-X turn (deadlock freedom).
	rf := mustBuild(t, "mesh", 8, 8)
	f := func(aRaw, bRaw uint8) bool {
		a, b := quickPair(rf.Topology(), aRaw, bRaw)
		p := Path(rf, a, b)
		in := mesh.Local
		for i := 0; i+1 < len(p); i++ {
			out := MustRoute(rf, p[i], b)
			if !rf.LegalTurn(in, out) {
				return false
			}
			in = out
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLegalTurn(t *testing.T) {
	rf := mustBuild(t, "mesh", 8, 8)
	cases := []struct {
		in, out mesh.Direction
		want    bool
	}{
		{mesh.East, mesh.East, true},
		{mesh.East, mesh.North, true},  // X to Y: legal
		{mesh.East, mesh.South, true},  // X to Y: legal
		{mesh.North, mesh.East, false}, // Y to X: illegal
		{mesh.South, mesh.West, false}, // Y to X: illegal
		{mesh.North, mesh.North, true},
		{mesh.East, mesh.West, false}, // reversal
		{mesh.North, mesh.South, false},
		{mesh.Local, mesh.East, true},
		{mesh.North, mesh.Local, true},
	}
	for _, c := range cases {
		if got := rf.LegalTurn(c.in, c.out); got != c.want {
			t.Errorf("LegalTurn(%v,%v) = %v, want %v", c.in, c.out, got, c.want)
		}
	}
}

func TestOnPath(t *testing.T) {
	rf := mustBuild(t, "mesh", 8, 8)
	// Path 27 -> 21 is 27,28,29,21 (paper: "R26 to R29 is along the path
	// from R27 to R21").
	for _, node := range []mesh.NodeID{27, 28, 29, 21} {
		if !OnPath(rf, 27, 21, node) {
			t.Errorf("OnPath(27,21,%d) = false", node)
		}
	}
	for _, node := range []mesh.NodeID{26, 20, 37, 13} {
		if OnPath(rf, 27, 21, node) {
			t.Errorf("OnPath(27,21,%d) = true", node)
		}
	}
}

func TestNextHopErrorsOffMesh(t *testing.T) {
	// Routing toward a destination off the mesh must fail with a typed
	// error rather than route off the edge silently, and the path walks
	// (which treat it as a programming error) must panic with it.
	// Destinations are validated upstream; this guards the invariant.
	rf := mustBuild(t, "mesh", 4, 4)
	var re *RouteError
	if _, err := rf.NextHop(3, 99); !errors.As(err, &re) {
		t.Fatalf("NextHop(3, 99) error = %v, want *RouteError", err)
	}
	defer func() {
		if err, ok := recover().(error); !ok || !errors.As(err, &re) {
			t.Errorf("Path(3, 99) recovered %v, want a *RouteError panic", err)
		}
	}()
	Path(rf, 3, 99)
}
