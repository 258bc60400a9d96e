package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
	"powerpunch/internal/pg"
	"powerpunch/internal/topo"
)

// eventLog is an obs sink that keeps every event it sees.
type eventLog struct{ evs []obs.Event }

func (l *eventLog) Event(e *obs.Event) { l.evs = append(l.evs, *e) }

// flitRec identifies one flit crossing a router boundary, independent of
// which harness allocated the Flit object.
type flitRec struct {
	Port   int
	Pkt    uint64
	Seq    int
	VC     int
	Bypass bool
}

// vcRec is a VCView with the front flit reduced to its identity.
type vcRec struct {
	View     VCView
	FrontPkt uint64
	FrontSeq int
}

// diffHarness plays every neighbor of one router under test: the upstream
// routers and NI feeding its input ports (honouring its credits), and the
// downstream routers draining its outputs and returning credits.
type diffHarness struct {
	r     *Router
	log   eventLog
	pkts  []*flit.Packet
	queue [][]*flit.Flit // per input VC key: flits waiting upstream, packets back to back
	cred  []int          // per input VC key: upstream's credit count
	owed  [mesh.NumPorts][]int

	flitsOut   []flitRec
	creditsOut []flitRec
}

func newDiffHarness(t *testing.T, id mesh.NodeID, rf topo.RoutingFunction, cfg *config.Config) *diffHarness {
	t.Helper()
	r := New(id, rf, cfg, pg.New(false, 2, 1, 0), nil)
	h := &diffHarness{r: r}
	bus := obs.NewBus(obs.Meta{})
	bus.Attach(&h.log)
	r.SetBus(bus)
	total := mesh.NumPorts * r.NumVCs()
	h.queue = make([][]*flit.Flit, total)
	h.cred = make([]int, total)
	for key := range h.cred {
		h.cred[key] = cfg.VCDepth(key % r.NumVCs() % cfg.VCsPerVN())
	}
	return h
}

// TestMaskedScansMatchFullTickReference drives a mask-scanning router and
// a FullTick reference router with the same seeded stream — multi-flit
// and back-to-back packets on control and data VNs, randomly blocked
// outputs, phases of credit starvation, on a 4x4 torus so both dateline
// classes allocate — and requires them to agree after every cycle on
// everything observable: flit and credit departures, obs events, VC
// state (scan-mask bits included, which must also be self-consistent),
// stall statistics, per-packet blocking counters, and WU want levels.
func TestMaskedScansMatchFullTickReference(t *testing.T) {
	rf, err := topo.Build("torus", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rf.VCClasses() != 2 {
		t.Fatalf("torus routing has %d VC classes, want 2", rf.VCClasses())
	}
	for _, id := range []mesh.NodeID{0, 5, 14} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("node%d/seed%d", id, seed), func(t *testing.T) {
				runRouterDifferential(t, rf, id, seed, 2500)
			})
		}
	}
}

func runRouterDifferential(t *testing.T, rf topo.RoutingFunction, id mesh.NodeID, seed int64, cycles int64) {
	base := config.Default()
	base.Width, base.Height = 4, 4
	base.Topology = "torus"
	base.Scheme = config.NoPG
	cfgMask, cfgRef := base, base
	cfgRef.FullTick = true
	hs := [2]*diffHarness{
		newDiffHarness(t, id, rf, &cfgMask),
		newDiffHarness(t, id, rf, &cfgRef),
	}
	numVCs := hs[0].r.NumVCs()
	perVN := base.VCsPerVN()
	nodes := rf.Topology().NumNodes()
	rng := rand.New(rand.NewSource(seed))
	var nextID uint64

	for now := int64(0); now < cycles; now++ {
		for _, h := range hs {
			h.r.bus.SetNow(now)
		}
		// Phases of 150 cycles alternate between generous credit return
		// and near-starvation of the downstream buffers.
		creditP := 0.9
		if now/150%2 == 1 {
			creditP = 0.05
		}

		// New packets: appended to an input VC's upstream queue, so a VC
		// often holds a tail with the next packet's head right behind it.
		for key := 0; key < mesh.NumPorts*numVCs; key++ {
			if rng.Float64() >= 0.04 || len(hs[0].queue[key]) > 8 {
				continue
			}
			vi := key % numVCs
			vn := flit.VirtualNetwork(vi / perVN)
			kind, size := flit.KindControl, 1
			if base.IsDataVC(vi%perVN) && rng.Intn(2) == 0 {
				kind, size = flit.KindData, 2+rng.Intn(4)
			}
			dst := mesh.NodeID(rng.Intn(nodes))
			nextID++
			for _, h := range hs {
				p := &flit.Packet{ID: nextID, Src: id, Dst: dst, VN: vn, Kind: kind, Size: size}
				h.pkts = append(h.pkts, p)
				h.queue[key] = append(h.queue[key], flit.NewFlits(p)...)
			}
		}

		// Arrivals: each input port accepts at most one flit per cycle,
		// from a random VC that has a flit waiting and an upstream credit.
		for port := 0; port < mesh.NumPorts; port++ {
			if rng.Float64() >= 0.7 {
				continue
			}
			first := rng.Intn(numVCs)
			for k := 0; k < numVCs; k++ {
				key := port*numVCs + (first+k)%numVCs
				if len(hs[0].queue[key]) == 0 || hs[0].cred[key] == 0 {
					continue
				}
				for _, h := range hs {
					f := h.queue[key][0]
					h.queue[key] = h.queue[key][1:]
					h.cred[key]--
					h.r.ReceiveFlit(mesh.Direction(port), key%numVCs, f, now)
				}
				break
			}
		}

		// Downstream state: blocked outputs (sticky, so stalls last) and
		// credit returns for flits that left earlier.
		for _, d := range mesh.LinkDirections {
			flip := rng.Float64() < 0.05
			ret := rng.Float64() < creditP
			for _, h := range hs {
				op := h.r.Out(d)
				if flip {
					op.Blocked = !op.Blocked
				}
				if ret && len(h.owed[d]) > 0 {
					h.r.ReceiveCredit(d, h.owed[d][0])
					h.owed[d] = h.owed[d][1:]
				}
			}
		}

		for _, h := range hs {
			h.r.Step(now)
			h.flitsOut, h.creditsOut = h.flitsOut[:0], h.creditsOut[:0]
			for port := 0; port < mesh.NumPorts; port++ {
				h.r.Out(mesh.Direction(port)).FlitOut.Drain(now+1000, func(ft FlitInTransit) {
					h.flitsOut = append(h.flitsOut, flitRec{port, ft.Flit.Packet.ID, ft.Flit.Seq, ft.VC, ft.Bypass})
					if port != int(mesh.Local) {
						h.owed[port] = append(h.owed[port], ft.VC)
					}
				})
				h.r.In(mesh.Direction(port)).CreditOut.Drain(now+1000, func(c Credit) {
					h.creditsOut = append(h.creditsOut, flitRec{Port: port, VC: c.VC})
					h.cred[port*numVCs+c.VC]++
				})
			}
		}
		compareHarnesses(t, now, hs[0], hs[1])
		if t.Failed() {
			return
		}
	}
	if hs[0].r.FlitsForwarded == 0 || hs[0].r.PGStallCycles == 0 {
		t.Fatalf("stream too weak: %d flits forwarded, %d PG stall cycles",
			hs[0].r.FlitsForwarded, hs[0].r.PGStallCycles)
	}
}

func compareHarnesses(t *testing.T, now int64, a, b *diffHarness) {
	t.Helper()
	if !reflect.DeepEqual(a.flitsOut, b.flitsOut) {
		t.Fatalf("cycle %d: flit departures differ:\nmask %v\nref  %v", now, a.flitsOut, b.flitsOut)
	}
	if !reflect.DeepEqual(a.creditsOut, b.creditsOut) {
		t.Fatalf("cycle %d: credit returns differ:\nmask %v\nref  %v", now, a.creditsOut, b.creditsOut)
	}
	if !reflect.DeepEqual(a.log.evs, b.log.evs) {
		t.Fatalf("cycle %d: obs events differ:\nmask %v\nref  %v", now, a.log.evs, b.log.evs)
	}
	a.log.evs, b.log.evs = a.log.evs[:0], b.log.evs[:0]
	if a.r.PGStallCycles != b.r.PGStallCycles || a.r.FlitsForwarded != b.r.FlitsForwarded {
		t.Fatalf("cycle %d: stalls/forwarded %d/%d (mask) vs %d/%d (ref)", now,
			a.r.PGStallCycles, a.r.FlitsForwarded, b.r.PGStallCycles, b.r.FlitsForwarded)
	}
	for i, p := range a.pkts {
		q := b.pkts[i]
		if p.WakeupWait != q.WakeupWait || p.BlockedRouters != q.BlockedRouters {
			t.Fatalf("cycle %d: packet %d wait/blocked %d/%d (mask) vs %d/%d (ref)", now,
				p.ID, p.WakeupWait, p.BlockedRouters, q.WakeupWait, q.BlockedRouters)
		}
	}
	va, vb := vcRecs(t, now, a.r), vcRecs(t, now, b.r)
	if !reflect.DeepEqual(va, vb) {
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("cycle %d: VC state differs:\nmask %+v\nref  %+v", now, va[i], vb[i])
			}
		}
	}
	var wa, wb [mesh.NumPorts]bool
	a.r.WantsOutput(&wa)
	b.r.WantsOutput(&wb)
	if wa != wb {
		t.Fatalf("cycle %d: WantsOutput %v (mask) vs %v (ref)", now, wa, wb)
	}
	a.r.WantsOutputAtSA(&wa, now)
	b.r.WantsOutputAtSA(&wb, now)
	if wa != wb {
		t.Fatalf("cycle %d: WantsOutputAtSA %v (mask) vs %v (ref)", now, wa, wb)
	}
}

// vcRecs snapshots every VC of r, failing on any scan-mask fault.
func vcRecs(t *testing.T, now int64, r *Router) []vcRec {
	t.Helper()
	var recs []vcRec
	r.ForEachVC(now, func(vv VCView) {
		if msg := vv.MaskFault(); msg != "" {
			t.Fatalf("cycle %d: FullTick=%v %v vc%d: %s", now, r.cfg.FullTick, vv.Port, vv.Index, msg)
		}
		rec := vcRec{View: vv, FrontSeq: -1}
		if vv.Front != nil {
			rec.FrontPkt, rec.FrontSeq = vv.Front.Packet.ID, vv.Front.Seq
			rec.View.Front = nil
		}
		recs = append(recs, rec)
	})
	return recs
}
