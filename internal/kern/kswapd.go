package kern

import (
	"fmt"

	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Kswapd-style background demotion: the memory-pressure half of the
// placement layer, extended to memory tiering v1. One daemon per node
// (a simulated kernel thread on the DES engine, like the AutoNUMA
// scanner) periodically checks its node's watermarks; when free frames
// sink to or below the low watermark it runs a clock-style cold-page
// scan and demotes unreferenced pages through the shared migration
// engine on PathDemotion until the node recovers above its high
// watermark. Between the low and high watermarks a proactive trickle
// demotes a small batch of genuinely cold pages per period, keeping
// headroom before pressure hits.
//
// The scan is temperature-aware: a page's accessed bit is cleared on
// the first encounter (aging, PTE.Age reset), and every later encounter
// with the bit still clear increments PTE.Age. Age 1 classifies the
// page warm — likely to be touched again, demoted to the *nearest*
// unpressured distance group — and Age >= 2 cold, demoted to the
// *farthest* (placement.DemotionTarget's two tiers). Three gates
// protect pages from wrong-way moves:
//
//   - promotion hysteresis: pages AutoNUMA promoted within the last
//     Params.PromotionHysteresisPeriods scan periods are skipped
//     outright (PTE.PromoGen vs Kernel.PromoGeneration), so promotion
//     and demotion stop ping-ponging the working set's edge;
//   - mempolicy nodemasks: a strict-bind page is never demoted outside
//     its mbind/set_mempolicy node set — if no demotion tier lies in
//     the mask the page is skipped and Stats.KswapdMaskSkips counts it,
//     like Linux reclaim honoring policy nodemasks;
//   - pinned, next-touch-marked and replicated pages never demote (the
//     next-touch contract promises migration toward the toucher;
//     NUMA-hint-armed pages stay demotable, the mark rides along).
//
// Demoting a page within Params.FlipWindowPeriods of its promotion
// counts one promote/demote flip (Stats.PromoteDemoteFlips) — the
// ping-pong telemetry the tiering scenario family grids as
// promote_demote_flips.

// kswapd is one node's demotion daemon.
type kswapd struct {
	k    *Kernel
	node topology.NodeID
	core topology.CoreID // the node's first core: where engine work is charged

	// cursors resumes the clock hand per process across wake-ups.
	cursors map[*Process]vm.VPN

	// Scan scratch, reused across shrink passes (one pass runs at a
	// time per daemon; the engine serializes all simulated code).
	cands  []candidate
	aged   []vm.VPN
	ops    []migrate.Op
	status []int
}

// EnableDemotion starts one kswapd-style demotion daemon per node,
// registered on the kernel's daemon hub: idle nodes coalesce into one
// group poll per period instead of one parked proc each, which is what
// keeps a 1024-node machine's event queue quiet. Each daemon retires
// itself on the first poll after the last thread of every process has
// exited, so the engine drains normally. Idempotent; typically called
// before Run (numamig.Config.Demotion).
func (k *Kernel) EnableDemotion() {
	if k.demotion {
		return
	}
	k.demotion = true
	// The daemons are what decays a burst watermark boost, so boosting
	// only arms together with them.
	k.Placer.EnableBurstBoost()
	for n := range k.M.Nodes {
		// Memory-only nodes (CXL expanders) have no cores; their daemon's
		// engine work is charged to the machine's first core, like a
		// kernel thread for a CPU-less node running on a fallback CPU.
		core := topology.CoreID(0)
		if len(k.M.Nodes[n].Cores) > 0 {
			core = k.M.Nodes[n].Cores[0]
		}
		d := &kswapd{
			k:       k,
			node:    topology.NodeID(n),
			core:    core,
			cursors: map[*Process]vm.VPN{},
		}
		k.kswapds = append(k.kswapds, d)
		k.hub.Register(d)
	}
}

// DemotionEnabled reports whether the demotion daemons are running.
func (k *Kernel) DemotionEnabled() bool { return k.demotion }

// Name labels the proc spawned for a busy tick.
func (d *kswapd) Name() string { return fmt.Sprintf("kswapd%d", d.node) }

// Period is the fixed kswapd wake interval.
func (d *kswapd) Period() sim.Time { return d.k.P.KswapdPeriod }

// Poll is the hub-driven tick decision: retire after the last
// application thread, skip the period when the node needs neither boost
// decay nor reclaim nor a proactive trickle (exactly the iterations the
// old per-node loop spent waking up to do nothing), run otherwise.
func (d *kswapd) Poll() TickVerdict {
	if d.k.liveThreads() == 0 {
		return TickRetire
	}
	// Idle iff the whole tick body would be a no-op: no boost to decay
	// (DecayBoost at boost 0 does nothing), not under pressure, no
	// trickle due (either fully reclaimed or trickling disabled), and no
	// tenant sitting at its fast-tier cap with pages here.
	if d.k.Phys.BoostOf(d.node) == 0 &&
		!d.k.Phys.UnderPressure(d.node) &&
		(d.k.Phys.Reclaimed(d.node) || d.k.P.KswapdProactiveBatch <= 0) &&
		!d.capPressure() {
		return TickIdle
	}
	return TickRun
}

// capPressure reports whether a tenant sits at or past its fast-tier
// cap with pages resident on this (fast-tier) node — the tenancy
// analogue of watermark pressure.
func (d *kswapd) capPressure() bool {
	return d.k.Phys.TierOf(d.node) == 0 && d.k.Ten.OverCapOn(d.node) != nil
}

// Run is one busy kswapd tick: decay the node's burst watermark boost,
// reclaim when the node is under its (boosted) low watermark, trickle
// proactively while it merely lacks headroom. On a machine with an
// explicit slow tier, placement.DemotionTarget points each daemon at
// the next tier down (DRAM -> CXL) and a bottom-tier daemon only at
// its within-tier siblings.
func (d *kswapd) Run(p *sim.Proc) {
	// The reclaim/trickle decision below still sees part of this
	// period's boost: the burst that armed it stays visible for
	// log2(boost) periods.
	d.k.Phys.DecayBoost(d.node)
	switch {
	case d.k.Phys.UnderPressure(d.node):
		d.k.Stats.KswapdWakeups++
		t0 := p.Now()
		d.reclaim(p)
		d.k.bus.Publish(telemetry.Event{
			Topic: telemetry.TopicKswapdWake,
			Node:  d.node, Dst: telemetry.NoNode,
			Task: p.ID(), Dur: p.Now() - t0,
		})
	case !d.k.Phys.Reclaimed(d.node) && d.k.P.KswapdProactiveBatch > 0:
		// Between low and high: demote a small batch of genuinely
		// cold pages so the next allocation burst finds headroom
		// without waking the full reclaim path.
		d.trickle(p)
	}
	// Tenancy cap reclaim runs independently of node watermarks: a
	// tenant at its fast-tier cap has its cold fast pages trickled down
	// a tier in the background, so the foreground fault path's cap
	// redirect is the backstop rather than the only mechanism —
	// mirroring cgroup memory.high background reclaim.
	if d.capPressure() {
		d.capReclaim(p)
	}
}

// capReclaim runs one bounded shrink pass over the process of the
// first-admitted at-cap tenant with pages on this node, demoting its
// unreferenced fast pages to the tier below.
func (d *kswapd) capReclaim(p *sim.Proc) {
	k := d.k
	ten := k.Ten.OverCapOn(d.node)
	if ten == nil {
		return
	}
	var pr *Process
	for _, q := range k.procs {
		if q.Tenant == ten {
			pr = q
			break
		}
	}
	if pr == nil {
		return
	}
	near, far, ok := d.targets()
	if !ok {
		return
	}
	defer p.PushCat(CatKswapd)()
	batch := k.P.KswapdBatch
	if batch <= 0 {
		batch = 64
	}
	d.shrink(p, pr, near, far, batch, false)
}

// targets resolves the two demotion tiers: the nearest unpressured
// distance group for warm pages and the farthest for cold ones. When
// only one tier exists (2-node machines, or all but one group
// pressured) both temperatures share it. ok is false when every other
// node is pressured — demoting then would only shift the pressure.
func (d *kswapd) targets() (near, far topology.NodeID, ok bool) {
	near, okN := d.k.Placer.DemotionTarget(d.node, false)
	far, okF := d.k.Placer.DemotionTarget(d.node, true)
	switch {
	case okN && okF:
		return near, far, true
	case okN:
		return near, near, true
	case okF:
		return far, far, true
	}
	return 0, 0, false
}

// reclaim demotes unreferenced pages off the daemon's node until free
// frames recover above the high watermark, every other node is
// pressured too, or two full scan passes find nothing demotable
// (everything hot, pinned, replicated, hysteresis-protected or
// mask-locked). The second no-progress pass distinguishes "all pages
// freshly aged" from "truly nothing to demote": aging clears accessed
// bits, so the next pass can still collect.
func (d *kswapd) reclaim(p *sim.Proc) {
	k := d.k
	defer p.PushCat(CatKswapd)()
	noProgress := 0
	for !k.Phys.Reclaimed(d.node) && noProgress < 2 {
		near, far, ok := d.targets()
		if !ok {
			return
		}
		batch := k.P.KswapdBatch
		if batch <= 0 {
			batch = 64
		}
		demoted := 0
		for _, pr := range k.procs {
			demoted += d.shrink(p, pr, near, far, batch, false)
		}
		if demoted == 0 {
			noProgress++
		} else {
			noProgress = 0
		}
	}
}

// trickle is the proactive path: one bounded cold-only shrink pass per
// wake-up while the node sits between its low and high watermarks.
func (d *kswapd) trickle(p *sim.Proc) {
	k := d.k
	defer p.PushCat(CatKswapd)()
	near, far, ok := d.targets()
	if !ok {
		return
	}
	k.Stats.KswapdProactiveRuns++
	budget := k.P.KswapdProactiveBatch
	for _, pr := range k.procs {
		if budget <= 0 {
			return
		}
		budget -= d.shrink(p, pr, near, far, budget, true)
	}
}

// candidate is one page the clock scan selected for demotion.
type candidate struct {
	vpn  vm.VPN
	dst  topology.NodeID
	cold bool // temperature classification (Age >= 2)
	flip bool // promoted within the flip window: demoting it is ping-pong
}

// maskHas reports whether a strict-bind node set contains n.
func maskHas(mask []topology.NodeID, n topology.NodeID) bool {
	for _, m := range mask {
		if m == n {
			return true
		}
	}
	return false
}

// shrink runs one clock pass over a process: scan resident pages on
// the daemon's node from the saved cursor, aging accessed pages and
// collecting up to batch unreferenced ones — warm pages toward near,
// cold pages toward far — then demote the batch through the shared
// engine. coldOnly restricts collection to cold pages (the proactive
// trickle). Returns the number of pages that actually left the node.
func (d *kswapd) shrink(p *sim.Proc, pr *Process, near, far topology.NodeID, batch int, coldOnly bool) int {
	k := d.k
	// Per-tier headroom: cap collection so each destination stays
	// strictly above its low watermark afterwards — a larger batch would
	// push the tier into pressure itself, cascading the cold pages
	// onward next period, and the engine's allocation fallback would
	// land the overflow right back on this node, a wasted copy rather
	// than a demotion. near and far may be the same node; the shared
	// budget entry makes them share the budget then (at most two
	// destinations, so a fixed pair replaces the old per-call map).
	var hrNodes [2]topology.NodeID
	var hrRoom [2]int64
	hrN := 1
	hrNodes[0], hrRoom[0] = near, k.Phys.Headroom(near)
	if far != near {
		hrNodes[1], hrRoom[1] = far, k.Phys.Headroom(far)
		hrN = 2
	}
	capacity := int64(0)
	for i := 0; i < hrN; i++ {
		if hrRoom[i] > 0 {
			capacity += hrRoom[i]
		}
	}
	if capacity <= 0 {
		return 0
	}
	pr.MmapSem.RLock(p)
	defer pr.MmapSem.RUnlock()

	vmas := pr.Space.VMAs()
	if len(vmas) == 0 {
		return 0
	}
	cursor := d.cursors[pr]
	start := len(vmas)
	for i, v := range vmas {
		if vm.PageOf(v.End-1)+1 > cursor {
			start = i
			break
		}
	}
	if start == len(vmas) { // cursor past the last mapping: wrap
		start, cursor = 0, 0
	}

	curGen := k.PromoGeneration()
	hyst := uint32(0)
	if k.P.PromotionHysteresisPeriods > 0 {
		hyst = uint32(k.P.PromotionHysteresisPeriods)
	}
	flipWin := uint32(0)
	if k.P.FlipWindowPeriods > 0 {
		flipWin = uint32(k.P.FlipWindowPeriods)
	}

	// takeOne reserves one frame of headroom on node n if the mask (when
	// present) allows it.
	takeOne := func(n topology.NodeID, mask []topology.NodeID) bool {
		if mask != nil && !maskHas(mask, n) {
			return false
		}
		for i := 0; i < hrN; i++ {
			if hrNodes[i] == n && hrRoom[i] > 0 {
				hrRoom[i]--
				return true
			}
		}
		return false
	}
	// take reserves one frame of headroom on the page's preferred tier,
	// falling back to the other tier when the preferred one is out of
	// room and the page's nodemask (if any) allows it.
	take := func(pref, other topology.NodeID, mask []topology.NodeID) (topology.NodeID, bool) {
		if takeOne(pref, mask) {
			return pref, true
		}
		if takeOne(other, mask) {
			return other, true
		}
		return 0, false
	}

	cands := d.cands[:0]
	full := func() bool {
		if len(cands) >= batch {
			return true
		}
		for i := 0; i < hrN; i++ {
			if hrRoom[i] > 0 {
				return false
			}
		}
		return true
	}

	next := cursor
	for step := 0; step < len(vmas) && !full(); step++ {
		v := vmas[(start+step)%len(vmas)]
		if step > 0 || vm.PageOf(v.Start) > cursor {
			cursor = vm.PageOf(v.Start)
		}
		// Strict-bind pages demote only within their policy nodemask
		// (mbind/set_mempolicy), like Linux reclaim: demoting a bound
		// page to a node outside the mask would undo the binding the
		// application asked for.
		var mask []topology.NodeID
		if pol := k.Placer.Resolve(v.Pol, pr.Space.DefaultPol); pol.Kind == vm.PolBind && len(pol.Nodes) > 0 {
			mask = pol.Nodes
		}
		last := vm.PageOf(v.End-1) + 1
		for cstart := cursor; cstart < last && !full(); {
			ci := vm.ChunkIndex(cstart)
			cend := vm.VPN((ci + 1) * model.PTEChunkPages)
			if cend > last {
				cend = last
			}
			cl := pr.chunkLock(ci)
			cl.Acquire(p)
			n := 0
			aged := d.aged[:0]
			// Extent scan: extents off this node are rejected without
			// touching their pages, and the extent's shared state hoists
			// the pinned/next-touch, accessed, hysteresis and temperature
			// tests out of the page loop. The clock hand's aging writes
			// are collected and applied after the walk, still under the
			// chunk lock.
			pr.Space.PT.Extents(cstart, cend, false, func(e vm.Ext) bool {
				if e.Node != d.node {
					return true
				}
				// NUMA-hint-armed pages stay demotable (the mark rides
				// along with the frame swap, like PROT_NONE pages staying
				// on the LRU); pinned and next-touch-marked pages do not —
				// the next-touch contract promises migration toward the
				// toucher, not away. They still count as scanned.
				pinnedNT := e.Flags&(vm.PTEPinned|vm.PTENextTouch) != 0
				accessed := e.Flags&vm.PTEAccessed != 0
				// Promotion hysteresis: a page AutoNUMA promoted within
				// the last PromotionHysteresisPeriods scan periods is
				// off-limits entirely (not even aged) — the promotion
				// just declared it hot; demoting it now would only
				// ping-pong it back out.
				protected := hyst > 0 && e.PromoGen != 0 && curGen-e.PromoGen < hyst
				flip := flipWin > 0 && e.PromoGen != 0 && curGen-e.PromoGen < flipWin
				// Temperature after this encounter's aging: one
				// unreferenced period is warm (likely to be touched again;
				// nearest tier), two or more is genuinely cold (farthest
				// tier).
				age := e.Age
				if age < ^uint8(0) {
					age++
				}
				cold := age >= 2
				for v := e.Start; v < e.Start+vm.VPN(e.N); v++ {
					if full() {
						return false // batch full mid-chunk: stop examining
					}
					n++
					if pinnedNT {
						continue
					}
					if pr.replicas != nil {
						if _, replicated := pr.replicas[v]; replicated {
							continue
						}
					}
					if protected {
						k.Stats.KswapdHysteresisSkips++
						continue
					}
					aged = append(aged, v)
					if accessed {
						// First clock hand: age the page; a page still
						// unreferenced at the next encounter is demotable.
						k.Stats.PagesAged++
						continue
					}
					if coldOnly && !cold {
						continue
					}
					pref, other := near, far
					if cold {
						pref, other = far, near
					}
					if mask != nil && !maskHas(mask, near) && !maskHas(mask, far) {
						k.Stats.KswapdMaskSkips++
						continue
					}
					dst, ok := take(pref, other, mask)
					if !ok {
						continue
					}
					cands = append(cands, candidate{vpn: v, dst: dst, cold: cold, flip: flip})
				}
				return true
			})
			// Aging: clear the accessed bit (restarting the count), or
			// count one more unreferenced encounter (saturating).
			for _, v := range aged {
				pte := pr.Space.PT.Get(v)
				if pte.Flags&vm.PTEAccessed != 0 {
					pte.Flags &^= vm.PTEAccessed
					pte.Age = 0
				} else if pte.Age < ^uint8(0) {
					pte.Age++
				}
				pr.Space.PT.Install(v, pte)
			}
			d.aged = aged
			cl.Release()
			k.Stats.KswapdPtesScanned += uint64(n)
			p.Sleep(sim.Time(n) * k.P.KswapdScanPage)
			cstart = cend
			next = cend
		}
	}
	if next >= vm.PageOf(vmas[len(vmas)-1].End-1)+1 {
		next = 0 // full pass complete: wrap
	}
	d.cursors[pr] = next

	d.cands = cands
	if len(cands) == 0 {
		return 0
	}
	ops := d.ops[:0]
	status := d.status[:0]
	for _, c := range cands {
		ops = append(ops, migrate.Op{VPN: c.vpn, Dst: c.dst})
		status = append(status, 0)
	}
	d.ops, d.status = ops, status
	k.Migrator(migrate.Patched).Migrate(&migrate.Request{
		P: p, Core: d.core, Space: pr, Ops: ops, Status: status,
		Path: migrate.PathDemotion, Flush: true,
		CopyCat: CatDemotionCopy,
	})
	// Count (and report as progress) only the pages that actually left
	// this node: a racing allocation can still exhaust dst mid-batch
	// and bounce the engine's fallback right back here.
	demoted, coldOut := 0, 0
	for i, s := range status {
		if s < 0 || topology.NodeID(s) == d.node {
			continue
		}
		demoted++
		if cands[i].cold {
			k.Stats.PagesDemotedCold++
			coldOut++
		}
		if cands[i].flip {
			k.Stats.PromoteDemoteFlips++
		}
	}
	k.Stats.PagesDemoted += uint64(demoted)
	if demoted > 0 {
		k.bus.Publish(telemetry.Event{
			Topic: telemetry.TopicDemote,
			Node:  d.node, Dst: telemetry.NoNode,
			Task: p.ID(), Pages: demoted, Value: float64(coldOut),
		})
	}
	return demoted
}
