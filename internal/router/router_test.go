package router

import (
	"fmt"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/pg"
	"powerpunch/internal/topo"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.Scheme = config.NoPG
	return cfg
}

func newRouter(t *testing.T, id mesh.NodeID, cfg *config.Config) *Router {
	t.Helper()
	m := mesh.New(cfg.Width, cfg.Height)
	ctrl := pg.New(false, 2, 1, 0)
	return New(id, topo.Routing(topo.FromMesh(m)), cfg, ctrl, nil)
}

func mkPacket(id uint64, src, dst mesh.NodeID, size int) *flit.Packet {
	return &flit.Packet{ID: id, Src: src, Dst: dst, VN: flit.VNRequest, Kind: kindFor(size), Size: size}
}

func kindFor(size int) flit.Kind {
	if size > 1 {
		return flit.KindData
	}
	return flit.KindControl
}

// stepUntil steps the router until pred or the cycle budget runs out,
// returning the cycle pred first held.
func stepUntil(r *Router, from int64, budget int, pred func() bool) int64 {
	for now := from; now < from+int64(budget); now++ {
		r.Step(now)
		if pred() {
			return now
		}
	}
	return -1
}

func TestHeadFlitTraversesInTrouterCycles(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg) // interior router of the 4x4 mesh
	p := mkPacket(1, 4, 7, 1)  // heading east through 5
	f := flit.NewFlits(p)[0]
	r.ReceiveFlit(mesh.West, 0, f, 10)

	out := r.Out(mesh.East)
	departed := stepUntil(r, 10, 20, func() bool { return !out.FlitOut.Empty() })
	if departed != 13 {
		t.Fatalf("head departed at cycle %d, want 13 (arrival 10 + Trouter 3)", departed)
	}
}

func TestFourStageRouterIsOneCycleSlower(t *testing.T) {
	cfg := testCfg()
	cfg.RouterStages = 4
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 10)
	out := r.Out(mesh.East)
	departed := stepUntil(r, 10, 20, func() bool { return !out.FlitOut.Empty() })
	if departed != 14 {
		t.Fatalf("4-stage head departed at %d, want 14", departed)
	}
}

func TestRouteComputation(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	cases := []struct {
		dst  mesh.NodeID
		want mesh.Direction
	}{
		{6, mesh.East}, {4, mesh.West}, {1, mesh.North}, {9, mesh.South},
		{10, mesh.East}, // X first
		{5, mesh.Local},
	}
	for i, c := range cases {
		p := mkPacket(uint64(i), 0, c.dst, 1)
		r.ReceiveFlit(mesh.Local, i%r.NumVCs(), flit.NewFlits(p)[0], 0)
	}
	r.Step(1) // routes computed in VA phase
	var want [mesh.NumPorts]bool
	r.WantsOutput(&want)
	for _, c := range cases {
		if !want[c.want] {
			t.Errorf("output %v not wanted (dst %d)", c.want, c.dst)
		}
	}
}

func TestCreditsBlockWhenExhausted(t *testing.T) {
	// A 5-flit data packet through a 3-deep downstream VC: without
	// credit returns only 3 flits may leave; returning credits releases
	// the rest.
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	out := r.Out(mesh.East)

	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	next := 0
	var allocatedVC = -1
	for now := int64(0); now < 30; now++ {
		if next < len(fs) && r.CanAcceptFlit(mesh.West, 0) {
			r.ReceiveFlit(mesh.West, 0, fs[next], now)
			next++
		}
		r.Step(now)
		out.FlitOut.Drain(now+100, func(ft FlitInTransit) { allocatedVC = ft.VC })
	}
	// 3 drained, credits for the downstream VC now 0; flits 3,4 stuck.
	if got := r.BufferedFlits(); got != 2 {
		t.Fatalf("buffered = %d, want 2 stuck flits (credits exhausted)", got)
	}
	if out.Credits(allocatedVC) != 0 {
		t.Fatalf("credits = %d, want 0", out.Credits(allocatedVC))
	}
	// Returning credits unblocks the tail of the packet.
	r.ReceiveCredit(mesh.East, allocatedVC)
	r.ReceiveCredit(mesh.East, allocatedVC)
	forwarded := 0
	for now := int64(30); now < 40; now++ {
		r.Step(now)
		out.FlitOut.Drain(now+100, func(FlitInTransit) { forwarded++ })
	}
	if forwarded != 2 || r.BufferedFlits() != 0 {
		t.Fatalf("after credit return: forwarded %d, buffered %d", forwarded, r.BufferedFlits())
	}
}

func TestWormholeKeepsPacketContiguousPerVC(t *testing.T) {
	// A 5-flit data packet must depart in order, one flit per cycle once
	// flowing.
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	out := r.Out(mesh.East)
	var seqs []int
	next := 0
	for now := int64(0); now < 30; now++ {
		if next < len(fs) && r.CanAcceptFlit(mesh.West, 0) {
			r.ReceiveFlit(mesh.West, 0, fs[next], now)
			next++
		}
		r.Step(now)
		// Return credits promptly so the whole packet can flow.
		out.FlitOut.Drain(now+100, func(ft FlitInTransit) {
			seqs = append(seqs, ft.Flit.Seq)
			r.ReceiveCredit(mesh.East, ft.VC)
		})
	}
	if len(seqs) != 5 {
		t.Fatalf("forwarded %d flits, want 5", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("out-of-order flits: %v", seqs)
		}
	}
}

func TestBlockedOutputAccruesPaperStats(t *testing.T) {
	cfg := testCfg()
	cfg.Scheme = config.ConvOptPG
	r := newRouter(t, 5, &cfg)
	r.Out(mesh.East).Blocked = true

	p := mkPacket(1, 4, 7, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 0)
	for now := int64(0); now < 10; now++ {
		r.Step(now)
	}
	if p.BlockedRouters != 1 {
		t.Errorf("BlockedRouters = %d, want 1 (counted once per router)", p.BlockedRouters)
	}
	// Eligible from cycle 3 (arrival 0 + Trouter 3): waits cycles 3..9.
	if p.WakeupWait != 7 {
		t.Errorf("WakeupWait = %d, want 7", p.WakeupWait)
	}
	if r.PGStallCycles != 7 {
		t.Errorf("PGStallCycles = %d, want 7", r.PGStallCycles)
	}

	// Unblocking lets the packet proceed; the counters stop.
	r.Out(mesh.East).Blocked = false
	for now := int64(10); now < 15; now++ {
		r.Step(now)
	}
	if r.Out(mesh.East).FlitOut.Empty() {
		t.Error("packet did not proceed after unblock")
	}
	if p.BlockedRouters != 1 {
		t.Errorf("BlockedRouters grew after unblock: %d", p.BlockedRouters)
	}
}

func TestGatedRouterDoesNothing(t *testing.T) {
	cfg := testCfg()
	cfg.Scheme = config.ConvOptPG
	m := mesh.New(cfg.Width, cfg.Height)
	ctrl := pg.New(true, 2, 8, 10)
	r := New(5, topo.Routing(topo.FromMesh(m)), &cfg, ctrl, nil)
	// Gate the controller.
	for i := 0; i < 5; i++ {
		ctrl.Step(pg.Inputs{Empty: true})
	}
	if ctrl.IsOn() {
		t.Fatal("setup: controller should be gated")
	}
	// Step must be a no-op (and must not panic) while gated.
	r.Step(100)
	if !r.Empty() {
		t.Error("gated router mutated state")
	}
}

func TestVCAllocationRespectsVirtualNetworks(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	// A VN0 packet must never be allocated a VN1/VN2 downstream VC.
	p := mkPacket(1, 4, 7, 1)
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 0)
	for now := int64(0); now < 6; now++ {
		r.Step(now)
	}
	var got FlitInTransit
	found := false
	r.Out(mesh.East).FlitOut.Drain(100, func(ft FlitInTransit) { got, found = ft, true })
	if !found {
		t.Fatal("packet not forwarded")
	}
	perVN := cfg.VCsPerVN()
	if got.VC < 0 || got.VC >= perVN {
		t.Errorf("VN0 packet allocated downstream VC %d outside [0,%d)", got.VC, perVN)
	}
}

func TestControlPacketPrefersControlVC(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 1) // control packet
	r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p)[0], 0)
	for now := int64(0); now < 6; now++ {
		r.Step(now)
	}
	var vc int
	r.Out(mesh.East).FlitOut.Drain(100, func(ft FlitInTransit) { vc = ft.VC })
	if vc != cfg.DataVCs { // control VC follows the data VCs
		t.Errorf("control packet on VC %d, want control VC %d", vc, cfg.DataVCs)
	}
}

func TestDataPacketUsesDataVC(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	for i, f := range fs[:3] {
		r.ReceiveFlit(mesh.West, 0, f, int64(i))
	}
	for now := int64(0); now < 8; now++ {
		r.Step(now)
	}
	seen := false
	r.Out(mesh.East).FlitOut.Drain(100, func(ft FlitInTransit) {
		seen = true
		if !defaultIsData(&cfg, ft.VC) {
			t.Errorf("data packet on non-data VC %d", ft.VC)
		}
	})
	if !seen {
		t.Fatal("no flits forwarded")
	}
}

func defaultIsData(cfg *config.Config, vcIdx int) bool {
	return cfg.IsDataVC(vcIdx % cfg.VCsPerVN())
}

func TestReceiveFlitPanicsOnOverflow(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 5)
	fs := flit.NewFlits(p)
	for i := 0; i < 3; i++ { // data VC depth is 3
		r.ReceiveFlit(mesh.West, 0, fs[i], int64(i))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	r.ReceiveFlit(mesh.West, 0, fs[3], 3)
}

func TestEjectionPortHasUnboundedCredits(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	// Many packets to the local port must never stall on credits.
	var pending []*flit.Flit
	for i := 0; i < 8; i++ {
		p := mkPacket(uint64(i), 4, 5, 1)
		pending = append(pending, flit.NewFlits(p)[0])
	}
	count := 0
	for now := int64(0); now < 60; now++ {
		vc := int(now) % cfg.VCsPerVN()
		if len(pending) > 0 && r.CanAcceptFlit(mesh.West, vc) {
			r.ReceiveFlit(mesh.West, vc, pending[0], now)
			pending = pending[1:]
		}
		r.Step(now)
		r.Out(mesh.Local).FlitOut.Drain(now+100, func(FlitInTransit) { count++ })
	}
	if count != 8 {
		t.Errorf("ejected %d flits, want 8", count)
	}
}

func TestCanAcceptFlit(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	if !r.CanAcceptFlit(mesh.Local, 0) {
		t.Error("fresh router must accept")
	}
	p := mkPacket(1, 5, 7, 5)
	fs := flit.NewFlits(p)
	for i := 0; i < 3; i++ {
		r.ReceiveFlit(mesh.Local, 0, fs[i], int64(i))
	}
	if r.CanAcceptFlit(mesh.Local, 0) {
		t.Error("full VC must refuse")
	}
	if r.BufferedFlits() != 3 {
		t.Errorf("BufferedFlits = %d", r.BufferedFlits())
	}
}

// punchRecorder is a PunchEmitter fake that records every emission.
type punchRecorder struct {
	cur, dst []mesh.NodeID
}

func (pr *punchRecorder) EmitSource(cur, dst mesh.NodeID) {
	pr.cur = append(pr.cur, cur)
	pr.dst = append(pr.dst, dst)
}

func TestEmitPunchesEnumeratesAllHeadFlits(t *testing.T) {
	for _, fullTick := range []bool{false, true} {
		cfg := testCfg()
		cfg.FullTick = fullTick
		r := newRouter(t, 5, &cfg)
		var none punchRecorder
		r.EmitPunches(&none)
		if len(none.dst) != 0 {
			t.Fatalf("fullTick=%v: empty router emitted %d punches", fullTick, len(none.dst))
		}

		// One head in each of two VCs, plus a body flit that must not
		// punch.
		p1 := mkPacket(1, 4, 7, 1)
		p2 := mkPacket(2, 4, 11, 3)
		r.ReceiveFlit(mesh.West, 0, flit.NewFlits(p1)[0], 0)
		fs2 := flit.NewFlits(p2)
		r.ReceiveFlit(mesh.West, 1, fs2[0], 0)
		r.ReceiveFlit(mesh.West, 1, fs2[1], 0)
		var got punchRecorder
		r.EmitPunches(&got)
		if len(got.dst) != 2 || got.dst[0] != 7 || got.dst[1] != 11 {
			t.Fatalf("fullTick=%v: punched toward %v, want [7 11]", fullTick, got.dst)
		}
		for _, c := range got.cur {
			if c != r.ID {
				t.Errorf("fullTick=%v: punch emitted from %d, want router %d", fullTick, c, r.ID)
			}
		}

		// Two single-flit packets queued back to back in ONE data VC both
		// expose their heads.
		r2 := newRouter(t, 5, &cfg)
		q1 := mkPacket(3, 4, 7, 1)
		q2 := mkPacket(4, 4, 11, 1)
		r2.ReceiveFlit(mesh.West, 0, flit.NewFlits(q1)[0], 0)
		r2.ReceiveFlit(mesh.West, 0, flit.NewFlits(q2)[0], 0)
		var queued punchRecorder
		r2.EmitPunches(&queued)
		if len(queued.dst) != 2 || queued.dst[0] != 7 || queued.dst[1] != 11 {
			t.Errorf("fullTick=%v: queued heads punched toward %v, want [7 11]", fullTick, queued.dst)
		}
	}
}

func TestSwitchAllocationIsRoundRobinFair(t *testing.T) {
	// Two input VCs stream single-flit packets toward the same output;
	// over many cycles each must win about half the grants.
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	out := r.Out(mesh.East)
	wins := map[int]int{}
	var nextID uint64
	for now := int64(0); now < 400; now++ {
		for _, vc := range []int{0, 1} {
			if r.CanAcceptFlit(mesh.West, vc) {
				nextID++
				p := mkPacket(nextID, 4, 7, 1)
				r.ReceiveFlit(mesh.West, vc, flit.NewFlits(p)[0], now)
			}
		}
		r.Step(now)
		out.FlitOut.Drain(now+100, func(ft FlitInTransit) {
			wins[ft.VC%cfg.VCsPerVN()]++ // downstream VC tracks input class
			r.ReceiveCredit(mesh.East, ft.VC)
		})
	}
	total := 0
	for _, w := range wins {
		total += w
	}
	if total < 100 {
		t.Fatalf("too few grants: %d", total)
	}
	// No starvation: every contending class forwarded something and no
	// class took more than 80% of the link.
	for vc, w := range wins {
		frac := float64(w) / float64(total)
		if frac > 0.8 {
			t.Errorf("VC class %d monopolized the output (%.0f%%)", vc, frac*100)
		}
	}
}

// maskFaults counts the VCs whose views report a scan-mask fault.
func maskFaults(r *Router) (n int, key int) {
	key = -1
	r.ForEachVC(0, func(vv VCView) {
		if vv.MaskFault() != "" {
			n++
			key = vv.Key
		}
	})
	return n, key
}

func TestMaskFaultCatchesEveryFlippedBit(t *testing.T) {
	cfg := testCfg()
	r := newRouter(t, 5, &cfg)
	// Populate every mask: a routed, VC-allocated head (occ, req[East]),
	// a head still waiting for VA behind a blocked allocation (occ, pend,
	// req[North]), and a freshly arrived, unrouted head (occ, pend).
	fs := flit.NewFlits(mkPacket(1, 4, 7, 3))
	r.ReceiveFlit(mesh.West, 0, fs[0], 0)
	r.ReceiveFlit(mesh.West, 0, fs[1], 0)
	for v := 0; v < cfg.DataVCs; v++ {
		r.Out(mesh.North).owner[v] = 99 // every request-VN data VC taken
	}
	r.ReceiveFlit(mesh.South, 0, flit.NewFlits(mkPacket(2, 9, 1, 3))[0], 0)
	r.Step(1)
	r.ReceiveFlit(mesh.East, 1, flit.NewFlits(mkPacket(3, 6, 4, 1))[0], 1)

	if n, _ := maskFaults(r); n != 0 {
		t.Fatalf("consistent router reports %d mask faults", n)
	}
	masks := map[string][]uint64{"occ": r.occ, "pend": r.pend}
	for p := range r.req {
		masks[fmt.Sprintf("req[%v]", mesh.Direction(p))] = r.req[p]
	}
	for _, name := range []string{"occ", "pend", "req[E]", "req[N]"} {
		if masks[name][0] == 0 {
			t.Fatalf("setup leaves %s empty", name)
		}
	}
	for name, m := range masks {
		for key := 0; key < len(r.vcs); key++ {
			m[key>>6] ^= 1 << (key & 63)
			n, got := maskFaults(r)
			m[key>>6] ^= 1 << (key & 63)
			if n != 1 || got != key {
				t.Fatalf("flipping %s bit %d: %d faults (last at key %d), want exactly key %d", name, key, n, got, key)
			}
		}
	}
}
