package kern

import (
	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Automatic NUMA balancing substrate: the kernel half of
// internal/autonuma. The scanner daemon calls ArmNumaHints to strip
// access from mapped pages (the simulated change_prot_numa); the
// page-fault handler (fault.go) funnels the resulting hinting faults
// into numaServiceFaults, which restores access, consults the
// registered NumaBalancer for placement decisions, and routes the
// resulting promotions through the shared migration engine on the lazy
// channel.

// NumaBalancer is the placement-policy hook consulted on NUMA hinting
// faults. Implemented by internal/autonuma.Balancer; registered per
// process with SetNumaBalancer.
type NumaBalancer interface {
	// HintFaults records one batch of hinting faults taken by t — the
	// faulted pages and the nodes their frames reside on — and returns
	// the migration orders to apply. The kernel routes the orders
	// through the shared migration engine (PathNumaHint); orders for
	// pinned pages fail -EBUSY there like any other migration. Called
	// with mmap_sem held shared and no chunk locks.
	HintFaults(t *Task, pages []vm.VPN, src []topology.NodeID) []migrate.Op
}

// SetNumaBalancer registers the automatic-NUMA-balancing policy for the
// process (nil disables). Hinting faults on marked PTEs are serviced
// regardless; without a balancer they only restore access.
func (pr *Process) SetNumaBalancer(b NumaBalancer) { pr.numaBalancer = b }

// NumaBalancer returns the registered balancer, or nil.
func (pr *Process) NumaBalancer() NumaBalancer { return pr.numaBalancer }

// ArmNumaHints is the scanner daemon's work function: walk the address
// space from the cursor VPN, arming up to max present 4 KiB pages with
// the PTENumaHint mark (protection stripped, so the next touch faults).
// The bound is soft — rounded up to the enclosing PTE chunk, like the
// kernel's scan-size handling. Next-touch-marked, already-armed, pinned
// and replicated pages are skipped (a replicated page's readers already
// read their own node's copy, so moving its primary toward one of them
// gains nothing), as are huge and PROT_NONE mappings. Returns
// the number of pages armed and the cursor for the next tick (wrapping
// to the start of the address space after the last mapping).
//
// p is the scanner's sim proc, not an application task: the walk charges
// its costs to the daemon, holding mmap_sem shared and each chunk's PTE
// lock in turn, so scanning contends with faults and migrations exactly
// like task_numa_work does.
func (pr *Process) ArmNumaHints(p *sim.Proc, cursor vm.VPN, max int) (int, vm.VPN) {
	k := pr.K
	defer p.PushCat(CatNumaScan)()
	p.Sleep(k.P.NumaScanBase)
	pr.MmapSem.RLock(p)
	defer pr.MmapSem.RUnlock()

	vmas := pr.Space.VMAs()
	if len(vmas) == 0 {
		return 0, cursor
	}
	// Start at the first VMA ending past the cursor, wrapping once.
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

	// Replica lookups only matter once the process has ever replicated
	// (the map is created lazily); passing nil skip otherwise spares
	// ArmRange a map probe per page.
	var skip func(vm.VPN) bool
	if pr.replicas != nil {
		skip = func(pv vm.VPN) bool {
			_, replicated := pr.replicas[pv]
			return replicated
		}
	}

	armed, examined := 0, 0
	next := cursor
	for step := 0; step < len(vmas) && examined < max; step++ {
		v := vmas[(start+step)%len(vmas)]
		if step > 0 || vm.PageOf(v.Start) > cursor {
			cursor = vm.PageOf(v.Start)
		}
		if v.Flags&vm.VMAHuge != 0 || v.Prot == vm.ProtNone {
			next = vm.PageOf(v.End-1) + 1
			continue
		}
		last := vm.PageOf(v.End-1) + 1
		for cstart := cursor; cstart < last && examined < max; {
			ci := vm.ChunkIndex(cstart)
			cend := vm.VPN((ci + 1) * model.PTEChunkPages)
			if cend > last {
				cend = last
			}
			cl := pr.ChunkLock(ci)
			cl.Acquire(p)
			a, n := pr.Space.PT.ArmRange(cstart, cend, skip)
			armed += a
			cl.Release()
			examined += n
			k.Stats.NumaPtesScanned += uint64(n)
			p.Sleep(sim.Time(n) * k.P.NumaScanPage)
			cstart = cend
			next = cend
		}
	}
	if armed > 0 {
		// One shootdown per tick, like change_prot_numa's deferred flush.
		pr.TLBFlush(p)
	}
	if next >= vm.PageOf(vmas[len(vmas)-1].End-1)+1 {
		next = 0 // full pass complete: wrap
	}
	return armed, next
}

// numaServiceFaults services the NUMA hinting faults of one PTE
// chunk's pages, which the fault round classified without faulting per
// page. It charges their page faults, then clears the hint mark and
// restores access under the chunk lock — the kernel fixes the PTE
// before trying to migrate, so the toucher never blocks on the copy —
// then hands the observed (page, node) pairs to the balancer and runs
// its promotion orders through the shared engine on the lazy channel.
// Caller holds mmap_sem shared and no chunk locks.
func (t *Task) numaServiceFaults(pages []vm.VPN) {
	k := t.Proc.K
	sp := t.Proc.Space
	t.pageFaults(len(pages))
	defer t.P.PushCat(CatNumaHint)()
	t.P.Sleep(sim.Time(len(pages)) * k.P.FaultBase)

	faulted := make([]vm.VPN, 0, len(pages))
	src := make([]topology.NodeID, 0, len(pages))
	cl := t.Proc.ChunkLock(vm.ChunkIndex(pages[0]))
	cl.Acquire(t.P)
	for _, pg := range pages {
		pte := sp.PT.Get(pg)
		if !pte.Present() || pte.Flags&vm.PTENumaHint == 0 {
			continue // raced: another thread already serviced it
		}
		pte.Flags = pte.Flags&^(vm.PTENumaHint|vm.PTERead|vm.PTEWrite) | sp.Find(pg.Base()).Prot.Flags()
		_, replicated := t.Proc.replicas[pg]
		if replicated {
			// A page armed before it was replicated: restore access but
			// keep its write protection, and never report it, as
			// ArmNumaHints would not have armed it.
			pte.Flags &^= vm.PTEWrite
		}
		sp.PT.Install(pg, pte)
		if replicated {
			continue
		}
		faulted = append(faulted, pg)
		src = append(src, pte.Frame.Node)
	}
	cl.Release()
	if len(faulted) == 0 {
		return
	}
	k.Stats.NumaHintFaults += uint64(len(faulted))
	k.bus.Publish(telemetry.Event{
		Topic: telemetry.TopicNumaHintFault,
		Node:  t.Node(), Dst: telemetry.NoNode,
		Task: t.P.ID(), Pages: len(faulted),
	})
	t.P.Sleep(sim.Time(len(faulted)) * k.P.NumaHintFault)

	b := t.Proc.numaBalancer
	if b == nil {
		return
	}
	ops := b.HintFaults(t, faulted, src)
	if len(ops) == 0 {
		return
	}
	// Promotion rate limiting (Params.PromoteRateLimitMBps): orders
	// pulling pages off a slow-tier node consume that node's token
	// bucket; orders the bucket cannot cover are dropped — the page
	// stays on the slow tier until a later hinting fault retries it,
	// like Linux's numa_balancing_promote_rate_limit_MBps capping
	// pgpromote traffic.
	if k.P.PromoteRateLimitMBps > 0 {
		srcOf := make(map[vm.VPN]topology.NodeID, len(faulted))
		for i, pg := range faulted {
			srcOf[pg] = src[i]
		}
		kept := ops[:0]
		for _, op := range ops {
			if s, ok := srcOf[op.VPN]; ok && !k.AllowSlowPromotion(s) {
				continue
			}
			kept = append(kept, op)
		}
		ops = kept
		if len(ops) == 0 {
			return
		}
	}
	res := k.Migrator(migrate.Patched).Migrate(&migrate.Request{
		P: t.P, Core: t.Core, Space: t.Proc, Ops: ops,
		Path:     migrate.PathNumaHint,
		CopyCat:  CatNumaCopy,
		Priority: t.Proc.MigPrio,
		// Stamp the promoted pages with the current scan-period
		// generation: the demotion scan's hysteresis protects them for
		// Params.PromotionHysteresisPeriods periods, and demoting one
		// within Params.FlipWindowPeriods counts a promote/demote flip.
		StampPromoGen: k.PromoGeneration(),
	})
	k.Stats.NumaPagesPromoted += uint64(res.Moved)
	if res.Moved > 0 {
		k.bus.Publish(telemetry.Event{
			Topic: telemetry.TopicPromote,
			Node:  telemetry.NoNode, Dst: t.Node(),
			Task: t.P.ID(), Pages: res.Moved,
		})
	}
}
