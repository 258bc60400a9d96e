package check

import (
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/pg"
	"powerpunch/internal/router"
)

// legalTransition is the power-gating FSM's transition relation as
// specified in the paper's Section 2.2 (and implemented in internal/pg):
// gating passes through Draining, waking through Waking, and neither is
// skippable.
func legalTransition(from, to pg.State) bool {
	switch {
	case from == to:
		return true
	case from == pg.Active && to == pg.Draining:
		return true
	case from == pg.Draining && to == pg.Active:
		return true
	case from == pg.Draining && to == pg.Gated:
		return true
	case from == pg.Gated && to == pg.Waking:
		return true
	case from == pg.Waking && to == pg.Active:
		return true
	}
	return false
}

// checkPG runs the per-cycle power-gating safety invariants:
//
//   - pg-fsm-legality: only the transitions of Section 2.2's FSM occur.
//   - pg-wake-duration: a completed wake spent exactly Twakeup-1
//     end-of-cycle observations in Waking (the WU cycle itself is the
//     first of the Twakeup cycles).
//   - pg-empty: a gated or waking router holds no flits and none are in
//     flight toward it — power-gating never catches data in the dark.
func (e *Engine) checkPG(now int64) {
	if e.first != nil {
		return
	}
	for i, r := range e.view.Routers {
		cur := r.Ctrl.State()
		prev := e.prevState[i]
		if cur != prev {
			if !legalTransition(prev, cur) {
				e.fail(now, "pg-fsm-legality", "router %d transitioned %s -> %s", i, prev, cur)
			}
			if prev == pg.Waking && cur == pg.Active {
				// Under a bypass scheme a live stream holds the wake
				// countdown (BypassHold), so Waking may legitimately last
				// longer than Twakeup — but never less.
				if w := e.wakingFor[i]; w < e.expectWaking || (!e.bypass && w != e.expectWaking) {
					e.fail(now, "pg-wake-duration",
						"router %d completed wake after %d waking cycles, want %d (Twakeup=%d)",
						i, w, e.expectWaking, e.view.Cfg.WakeupLatency)
				}
			}
			e.record(now, "router %d: %s -> %s", i, prev, cur)
		}
		if cur == pg.Waking {
			e.wakingFor[i]++
			e.wakingSeen[i]++
		} else {
			e.wakingFor[i] = 0
		}
		if cur == pg.Gated {
			e.gatedSeen[i]++
		}
		e.prevState[i] = cur

		if r.Ctrl.PGAsserted() {
			if !r.Empty() {
				e.fail(now, "pg-empty", "router %d is %s with %d flits buffered", i, cur, r.BufferedFlits())
			}
			id := mesh.NodeID(i)
			for _, d := range mesh.LinkDirections {
				nb := e.view.M.Neighbor(id, d)
				if nb == mesh.Invalid {
					continue
				}
				op := e.view.Routers[nb].Out(d.Opposite())
				if op.FlitOut.Empty() {
					continue
				}
				if !e.bypass {
					e.fail(now, "pg-empty",
						"router %d is %s with %d flits in flight from router %d", i, cur, op.FlitOut.Len(), nb)
					continue
				}
				// Bypass scheme: tagged flits may legally fly toward a
				// gated router — they detour over it, never into it. Each
				// must be tagged AND structurally legal at this router: a
				// straight-through continuation (the bypass path has no
				// turn logic) landing in a class-legal VC.
				travel := d.Opposite()
				op.FlitOut.ForEach(func(ft router.FlitInTransit) {
					if !ft.Bypass {
						e.fail(now, "pg-empty",
							"router %d is %s with an untagged flit of packet %d in flight from router %d",
							i, cur, ft.Flit.Packet.ID, nb)
						return
					}
					next, err := e.view.RF.Route(id, ft.Flit.Dst())
					if err != nil || next != travel {
						e.fail(now, "bypass-legality",
							"router %d: bypass flit of packet %d (dst %d) flying %v over gated router %d would turn (route says %v)",
							nb, ft.Flit.Packet.ID, ft.Flit.Dst(), travel, i, next)
						return
					}
					if e.view.RF.VCClasses() > 1 {
						cls := e.view.RF.ClassFor(id, ft.Flit.Dst(), travel)
						rel := ft.VC % e.perVN
						dlo, dhi := e.view.Cfg.DataVCClassRange(cls)
						clo, chi := e.view.Cfg.CtrlVCClassRange(cls)
						if !(rel >= dlo && rel < dhi) && !(rel >= clo && rel < chi) {
							e.fail(now, "bypass-legality",
								"router %d: bypass flit of packet %d (dst %d) over gated router %d lands in VC %d outside dateline class %d",
								nb, ft.Flit.Packet.ID, ft.Flit.Dst(), i, ft.VC, cls)
						}
					}
				})
			}
		}
	}
}

// checkBlockedHeads runs the per-cycle progress invariants over every
// pipeline-ready routed head flit (the flits eligible for switch
// traversal this cycle):
//
//   - pg-wake-handshake: its downstream router is never still Gated —
//     under every power-gating scheme the WU level derived from this
//     very head reaches the neighbour's controller in the same cycle,
//     so at worst the neighbour is already Waking.
//   - punch-nonblocking: the paper's Section 4.1 guarantee. With k-hop
//     punch, LinkLatency 1 and k*Trouter >= Twakeup, the punch stream a
//     head emits from k hops out holds its downstream routers awake
//     gap-free, so a head more than k hops from its source never finds
//     the next router still waking. (At exactly k hops the injection
//     NI's one-cycle emission delay can legitimately cost a cycle, so
//     the bound is strict.)
//   - deadlock-watchdog: no ready head stalls more than CheckStallLimit
//     consecutive cycles without a gated/waking downstream excuse.
//   - scheduler-liveness: every head flit at the front of a VC is routed
//     by the end of its first full cycle in the router (route
//     computation is look-ahead and unconditional for a stepped
//     router). A head sitting unrouted for a cycle means the router
//     holds work but was never stepped — the failure mode of a lost
//     active-set re-arm, which the deadlock watchdog cannot see because
//     it only tracks routed heads.
func (e *Engine) checkBlockedHeads(now int64) {
	if e.first != nil {
		return
	}
	hops := e.view.Cfg.PunchHops
	for i, r := range e.view.Routers {
		if r.Empty() {
			continue
		}
		trouter := r.PipelineCycles()
		slots := e.stalls[i]
		r.ForEachVC(now, func(vv router.VCView) {
			if vv.Front != nil && vv.Front.Type.IsHead() && !vv.Routed && vv.FrontAge >= 1 {
				e.fail(now, "scheduler-liveness",
					"router %d %v vc%d: head of packet %d unrouted %d cycles after arrival — the router holds work but is not being stepped",
					i, vv.Port, vv.Index, vv.Front.Packet.ID, vv.FrontAge)
			}
			slot := &slots[vv.Key]
			ready := vv.Front != nil && vv.Routed && vv.FrontAge >= trouter
			if !ready {
				slot.f, slot.cnt, slot.ns = nil, 0, 0
				return
			}
			if slot.f == vv.Front {
				slot.cnt++
			} else {
				slot.f, slot.cnt, slot.ns = vv.Front, 1, 0
			}
			if vv.OutDir == mesh.Local {
				return // ejection never blocks (infinite NI credits)
			}
			nb := r.Out(vv.OutDir).Neighbor()
			if nb == mesh.Invalid {
				return
			}
			switch st := e.view.Routers[nb].Ctrl.State(); st {
			case pg.Gated:
				if e.bypass {
					if vv.Bypassing || e.bypassServable(nb, vv) {
						// A gated downstream is not a handshake failure
						// when the bypass path can serve this VC: the
						// router deliberately suppressed the wakeup. The
						// deadlock watchdog still applies — the stream
						// must make progress (credit stalls at the
						// landing router are bounded by its drain).
						slot.ns = 0
						if slot.cnt > e.stallLimit {
							e.fail(now, "deadlock-watchdog",
								"router %d %v vc%d: bypass-eligible flit of packet %d stalled %d cycles toward %v over gated router %d",
								i, vv.Port, vv.Index, vv.Front.Packet.ID, slot.cnt, vv.OutDir, nb)
						}
						return
					}
					// Servability can lapse mid-stall (the landing
					// router gated, closing the detour): the wakeup
					// level re-asserts, but needs a cycle on the wire
					// plus the controller's Gated step before the
					// neighbor reacts. Grant exactly that window; a
					// longer streak means the wakeup really was lost.
					if slot.ns++; slot.ns <= 2 {
						return
					}
				}
				e.fail(now, "pg-wake-handshake",
					"router %d %v vc%d: ready head of packet %d is blocked by router %d still gated (no wakeup honoured)",
					i, vv.Port, vv.Index, vv.Front.Packet.ID, nb)
			case pg.Waking:
				if e.punchGuard && e.view.M.HopDistance(vv.Front.Packet.Src, nb) > hops {
					e.fail(now, "punch-nonblocking",
						"router %d %v vc%d: head of packet %d (src %d, %d hops from router %d) arrived before router %d finished waking — the %d-hop punch did not hide Twakeup",
						i, vv.Port, vv.Index, vv.Front.Packet.ID, vv.Front.Packet.Src,
						e.view.M.HopDistance(vv.Front.Packet.Src, nb), nb, nb, hops)
				}
				slot.cnt, slot.ns = 0, 0 // waking downstream is a legitimate stall
			default:
				slot.ns = 0
				if slot.cnt > e.stallLimit {
					e.fail(now, "deadlock-watchdog",
						"router %d %v vc%d: head of packet %d stalled %d cycles toward %v with downstream router %d %s",
						i, vv.Port, vv.Index, vv.Front.Packet.ID, slot.cnt, vv.OutDir, nb, st)
				}
			}
		})
		if e.first != nil {
			return
		}
	}
}

// bypassServable recomputes, independently of the router's cached
// thruOK bit, whether the bypass path can serve the head at vv's front
// over the gated neighbor nb: the route continues straight through nb
// and the landing router is not itself power-gated — the same
// condition under which the router suppresses its wakeup level.
func (e *Engine) bypassServable(nb mesh.NodeID, vv router.VCView) bool {
	if vv.Front == nil || !vv.Front.Type.IsHead() {
		return false
	}
	c := e.view.M.Neighbor(nb, vv.OutDir)
	if c == mesh.Invalid || e.view.Routers[c].Ctrl.PGAsserted() {
		return false
	}
	next, err := e.view.RF.Route(nb, vv.Front.Dst())
	return err == nil && next == vv.OutDir
}

// checkCredits verifies credit conservation on every link (and on the
// NI's local injection loop): for each VC, upstream credits + downstream
// occupancy + flits on the wire + credits on the return wire add up to
// exactly the buffer depth. Anything else means credits leaked or were
// forged — the failure mode that silently corrupts flow control.
func (e *Engine) checkCredits(now int64) {
	if e.first != nil {
		return
	}
	cfg := e.view.Cfg
	for i, r := range e.view.Routers {
		id := mesh.NodeID(i)
		for _, d := range mesh.LinkDirections {
			nb := e.view.M.Neighbor(id, d)
			if nb == mesh.Invalid {
				continue
			}
			op := r.Out(d)
			ip := e.view.Routers[nb].In(d.Opposite())
			for v := 0; v < r.NumVCs(); v++ {
				depth := cfg.VCDepth(v % e.perVN)
				wire := 0
				op.FlitOut.ForEach(func(ft router.FlitInTransit) {
					// A bypass-tagged flit rides this wire physically but
					// belongs to the next link's ledger: its credit was
					// claimed at the flown-over router's output.
					if ft.VC == v && !ft.Bypass {
						wire++
					}
				})
				thru := 0
				if e.bypass {
					if up := e.view.M.Neighbor(id, d.Opposite()); up != mesh.Invalid {
						e.view.Routers[up].Out(d).FlitOut.ForEach(func(ft router.FlitInTransit) {
							if ft.Bypass && ft.VC == v {
								thru++
							}
						})
					}
				}
				back := 0
				ip.CreditOut.ForEach(func(c router.Credit) {
					if c.VC == v {
						back++
					}
				})
				got := op.Credits(v) + e.view.Routers[nb].VCOccupancy(d.Opposite(), v) + wire + thru + back
				if got != depth {
					e.fail(now, "credit-conservation",
						"link %d->%d vc%d: credits %d + occupancy %d + wire %d + thru %d + returning %d != depth %d",
						i, nb, v, op.Credits(v), e.view.Routers[nb].VCOccupancy(d.Opposite(), v), wire, thru, back, depth)
					return
				}
			}
		}
		// The NI is the upstream "router" of the local input port.
		nif := e.view.NIs[i]
		ip := r.In(mesh.Local)
		for v := 0; v < r.NumVCs(); v++ {
			depth := cfg.VCDepth(v % e.perVN)
			back := 0
			ip.CreditOut.ForEach(func(c router.Credit) {
				if c.VC == v {
					back++
				}
			})
			got := nif.CreditCount(v) + r.VCOccupancy(mesh.Local, v) + back
			if got != depth {
				e.fail(now, "credit-conservation",
					"ni %d local vc%d: credits %d + occupancy %d + returning %d != depth %d",
					i, v, nif.CreditCount(v), r.VCOccupancy(mesh.Local, v), back, depth)
				return
			}
		}
	}
}

// checkConservation verifies per-VN flit conservation across the whole
// network: every flit ever injected is either buffered in a router, on a
// wire, or ejected (a flit counts as ejected once the NI accepts it,
// even while its packet is still reassembling). A leak or a duplicate
// anywhere breaks the sum.
func (e *Engine) checkConservation(now int64) {
	if e.first != nil {
		return
	}
	var injected, ejected, inFlight [flit.NumVirtualNetworks]int64
	for i, r := range e.view.Routers {
		nif := e.view.NIs[i]
		for vn := flit.VirtualNetwork(0); vn < flit.NumVirtualNetworks; vn++ {
			injected[vn] += nif.InjectedFlitsVN(vn)
			ejected[vn] += nif.EjectedFlitsVN(vn)
		}
		if !r.Empty() {
			for v := 0; v < r.NumVCs(); v++ {
				vn := flit.VirtualNetwork(v / e.perVN)
				for p := 0; p < mesh.NumPorts; p++ {
					inFlight[vn] += int64(r.VCOccupancy(mesh.Direction(p), v))
				}
			}
		}
		for p := 0; p < mesh.NumPorts; p++ {
			r.Out(mesh.Direction(p)).FlitOut.ForEach(func(ft router.FlitInTransit) {
				inFlight[ft.Flit.Packet.VN]++
			})
		}
	}
	for vn := flit.VirtualNetwork(0); vn < flit.NumVirtualNetworks; vn++ {
		if injected[vn] != ejected[vn]+inFlight[vn] {
			e.fail(now, "flit-conservation",
				"vn %v: injected %d != ejected %d + in-flight %d",
				vn, injected[vn], ejected[vn], inFlight[vn])
			return
		}
	}
}

// checkVCLegality verifies the per-VC state machine: occupancy within
// depth, VA only after RC, flits in the VCs of their own virtual
// network, routes matching the fabric's routing function, allocated
// out-VCs inside the packet's dateline class on wrapped fabrics, the
// downstream VC ownership table consistent in both directions, and the
// router's scan masks (occupancy, per-output request, VA-pending) in
// agreement with the VC state they summarize (router.VCView.MaskFault).
func (e *Engine) checkVCLegality(now int64) {
	if e.first != nil {
		return
	}
	for i, r := range e.view.Routers {
		views := e.vcScratch[:0]
		r.ForEachVC(now, func(vv router.VCView) { views = append(views, vv) })
		e.vcScratch = views[:0]

		for _, vv := range views {
			if vv.Occupancy > vv.Depth {
				e.fail(now, "vc-legality", "router %d %v vc%d: occupancy %d > depth %d",
					i, vv.Port, vv.Index, vv.Occupancy, vv.Depth)
				return
			}
			if vv.VADone && !vv.Routed {
				e.fail(now, "vc-legality", "router %d %v vc%d: VA done before RC", i, vv.Port, vv.Index)
				return
			}
			if msg := vv.MaskFault(); msg != "" {
				e.fail(now, "vc-legality", "router %d %v vc%d: scan masks disagree with VC state: %s",
					i, vv.Port, vv.Index, msg)
				return
			}
			if vv.VADone {
				if vv.OutVC/e.perVN != vv.Index/e.perVN {
					e.fail(now, "vc-legality", "router %d %v vc%d: allocated out-VC %d crosses virtual networks",
						i, vv.Port, vv.Index, vv.OutVC)
					return
				}
				if own := r.Out(vv.OutDir).Owner(vv.OutVC); own != vv.Key {
					e.fail(now, "vc-legality",
						"router %d %v vc%d: allocated out-VC %d of %v owned by key %d, want %d",
						i, vv.Port, vv.Index, vv.OutVC, vv.OutDir, own, vv.Key)
					return
				}
			}
			if vv.Front == nil {
				continue
			}
			if int(vv.Front.Packet.VN) != vv.Index/e.perVN {
				e.fail(now, "vc-legality", "router %d %v vc%d: buffered flit of vn %v in a vn-%d VC",
					i, vv.Port, vv.Index, vv.Front.Packet.VN, vv.Index/e.perVN)
				return
			}
			if vv.Front.Type.IsHead() {
				if vv.Routed {
					want, err := e.view.RF.Route(r.ID, vv.Front.Dst())
					if err != nil {
						e.fail(now, "vc-legality",
							"router %d %v vc%d: packet %d has unroutable destination: %v",
							i, vv.Port, vv.Index, vv.Front.Packet.ID, err)
						return
					}
					if vv.OutDir != want {
						e.fail(now, "vc-legality",
							"router %d %v vc%d: packet %d routed %v, %s says %v",
							i, vv.Port, vv.Index, vv.Front.Packet.ID, vv.OutDir, e.view.RF, want)
						return
					}
				}
			} else if !vv.Routed || (!vv.VADone && !vv.Bypassing) {
				e.fail(now, "vc-legality",
					"router %d %v vc%d: body/tail flit at front without held route (routed=%v vaDone=%v bypassing=%v)",
					i, vv.Port, vv.Index, vv.Routed, vv.VADone, vv.Bypassing)
				return
			}
			// A bypassing VC holds a landing VC two hops out instead of a
			// normal VA allocation: it must stay inside the packet's
			// virtual network, the flown-over router's owner table must
			// carry the bypass sentinel for it, and on wrapped fabrics it
			// must sit inside the dateline class computed AT the
			// flown-over router (where the normal path would have
			// reallocated).
			if vv.Bypassing {
				if vv.OutVC/e.perVN != vv.Index/e.perVN {
					e.fail(now, "vc-legality",
						"router %d %v vc%d: bypass landing VC %d crosses virtual networks",
						i, vv.Port, vv.Index, vv.OutVC)
					return
				}
				b := e.view.M.Neighbor(r.ID, vv.OutDir)
				if b == mesh.Invalid {
					e.fail(now, "vc-legality",
						"router %d %v vc%d: bypassing toward %v with no neighbor",
						i, vv.Port, vv.Index, vv.OutDir)
					return
				}
				if own := e.view.Routers[b].Out(vv.OutDir).Owner(vv.OutVC); own != router.BypassOwner {
					e.fail(now, "vc-legality",
						"router %d %v vc%d: bypass landing VC %d of router %d %v owned by key %d, want bypass sentinel %d",
						i, vv.Port, vv.Index, vv.OutVC, b, vv.OutDir, own, router.BypassOwner)
					return
				}
				if e.view.RF.VCClasses() > 1 {
					cls := e.view.RF.ClassFor(b, vv.Front.Dst(), vv.OutDir)
					rel := vv.OutVC % e.perVN
					dlo, dhi := e.view.Cfg.DataVCClassRange(cls)
					clo, chi := e.view.Cfg.CtrlVCClassRange(cls)
					if !(rel >= dlo && rel < dhi) && !(rel >= clo && rel < chi) {
						e.fail(now, "dateline-legality",
							"router %d %v vc%d: packet %d (dst %d) bypassing over %d allocated landing VC %d outside dateline class %d (data [%d,%d), ctrl [%d,%d))",
							i, vv.Port, vv.Index, vv.Front.Packet.ID, vv.Front.Dst(), b,
							rel, cls, dlo, dhi, clo, chi)
						return
					}
				}
			}
			// dateline-legality: on wrapped fabrics (torus, ring) the
			// allocated downstream VC must sit inside the packet's
			// dateline class for the output's direction — the invariant
			// the deadlock-freedom argument rests on.
			if vv.VADone && vv.OutDir != mesh.Local && e.view.RF.VCClasses() > 1 {
				cls := e.view.RF.ClassFor(r.ID, vv.Front.Dst(), vv.OutDir)
				rel := vv.OutVC % e.perVN
				dlo, dhi := e.view.Cfg.DataVCClassRange(cls)
				clo, chi := e.view.Cfg.CtrlVCClassRange(cls)
				if !(rel >= dlo && rel < dhi) && !(rel >= clo && rel < chi) {
					e.fail(now, "dateline-legality",
						"router %d %v vc%d: packet %d (dst %d) toward %v allocated out-VC %d outside dateline class %d (data [%d,%d), ctrl [%d,%d))",
						i, vv.Port, vv.Index, vv.Front.Packet.ID, vv.Front.Dst(), vv.OutDir,
						rel, cls, dlo, dhi, clo, chi)
					return
				}
			}
		}

		// Reverse direction: every owned downstream VC has exactly the
		// input VC its key names, in the allocated state.
		for p := 0; p < mesh.NumPorts; p++ {
			op := r.Out(mesh.Direction(p))
			for v := 0; v < r.NumVCs(); v++ {
				own := op.Owner(v)
				if own < 0 {
					continue
				}
				vv := views[own]
				if !vv.VADone || vv.OutDir != mesh.Direction(p) || vv.OutVC != v {
					e.fail(now, "vc-legality",
						"router %d out %v vc%d: owner key %d does not hold this VC (vaDone=%v outDir=%v outVC=%d)",
						i, mesh.Direction(p), v, own, vv.VADone, vv.OutDir, vv.OutVC)
					return
				}
			}
		}
	}
}

// checkPipes verifies delivery hygiene: after the cycle's delivery phase
// no pipe holds an item that was already due.
func (e *Engine) checkPipes(now int64) {
	if e.first != nil {
		return
	}
	for i, r := range e.view.Routers {
		for p := 0; p < mesh.NumPorts; p++ {
			d := mesh.Direction(p)
			if n := r.Out(d).FlitOut.StaleCount(now); n != 0 {
				e.fail(now, "stale-pipe", "router %d out %v: %d flits missed delivery", i, d, n)
				return
			}
			if n := r.In(d).CreditOut.StaleCount(now); n != 0 {
				e.fail(now, "stale-pipe", "router %d in %v: %d credits missed delivery", i, d, n)
				return
			}
		}
	}
}

// checkFabric verifies punch-fabric sanity: inbound targets are valid
// mesh nodes within the residual hop budget (a target enters a relay
// inbox only after consuming at least one hop).
func (e *Engine) checkFabric(now int64) {
	if e.first != nil || e.view.Fabric == nil {
		return
	}
	hops := e.view.Fabric.Hops()
	for n := 0; n < e.view.M.NumNodes(); n++ {
		id := mesh.NodeID(n)
		for _, t := range e.view.Fabric.InboxTargets(id) {
			if !e.view.M.Contains(t) {
				e.fail(now, "fabric-sanity", "node %d inbox holds invalid target %d", n, t)
				return
			}
			if d := e.view.M.HopDistance(id, t); d > hops-1 {
				e.fail(now, "fabric-sanity",
					"node %d inbox target %d is %d hops away, punch budget leaves at most %d",
					n, t, d, hops-1)
				return
			}
		}
	}
}

// checkPGStats cross-checks the controllers' break-even (BET) accounting
// against the engine's independent observation of the same FSM: gated
// and waking cycle counters must agree exactly (the controller counts at
// its step, the engine at end of cycle, so a period in progress is one
// ahead), and event counters must be mutually consistent.
func (e *Engine) checkPGStats(now int64) {
	if e.first != nil {
		return
	}
	for i, r := range e.view.Routers {
		if !r.Ctrl.Enabled() {
			continue
		}
		st := r.Ctrl.Stats()
		adjG, adjW := int64(0), int64(0)
		switch r.Ctrl.State() {
		case pg.Gated:
			adjG = 1
		case pg.Waking:
			adjW = 1
		}
		if e.gatedSeen[i]-adjG != st.GatedCycles {
			e.fail(now, "pg-bet-accounting",
				"router %d: controller counted %d gated cycles, engine observed %d",
				i, st.GatedCycles, e.gatedSeen[i]-adjG)
			return
		}
		if e.wakingSeen[i]-adjW != st.WakingCycles {
			e.fail(now, "pg-bet-accounting",
				"router %d: controller counted %d waking cycles, engine observed %d",
				i, st.WakingCycles, e.wakingSeen[i]-adjW)
			return
		}
		if st.ShortGatings > st.GatingEvents {
			e.fail(now, "pg-bet-accounting",
				"router %d: %d short gatings exceed %d gating events", i, st.ShortGatings, st.GatingEvents)
			return
		}
		if st.WakeupsPunch+st.WakeupsWU > st.GatingEvents {
			e.fail(now, "pg-bet-accounting",
				"router %d: %d attributed wakeups exceed %d gating events",
				i, st.WakeupsPunch+st.WakeupsWU, st.GatingEvents)
			return
		}
	}
}
