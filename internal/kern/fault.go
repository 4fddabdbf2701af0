package kern

import (
	"fmt"
	"slices"
	"sort"

	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// ErrSegv is the simulated equivalent of an unhandled segmentation fault.
type ErrSegv struct {
	Addr  vm.Addr
	Write bool
}

func (e ErrSegv) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("kern: segmentation fault: %s at %#x", op, e.Addr)
}

// Touch performs one application access to addr: the hardware fast
// path first, which sets the accessed/dirty bits; on a miss the
// page-fault handler over the one page, then a retry. It is the
// single-address path; bulk accesses should use AccessRange/FaultIn.
func (t *Task) Touch(addr vm.Addr, write bool) error {
	vpn := vm.PageOf(addr)
	for attempt := 0; attempt < 16; attempt++ {
		if t.Proc.Space.PT.Touch(vpn, write) {
			return nil
		}
		if _, err := t.handleFaults(rectSpans{lo: vpn, hi: vpn + 1}, write, "Touch", addr); err != nil {
			return err
		}
	}
	return fmt.Errorf("kern: touch of %#x did not settle after 16 faults", addr)
}

// FaultIn resolves every faulting page in [addr, addr+length): demand
// allocation for absent pages, batched kernel next-touch migration for
// marked pages, minor fixups for stale protections, and SIGSEGV delivery
// for protection violations (which re-runs the scan afterwards, since
// the user handler typically repairs whole regions). It returns the
// number of pages that required service. A zero length faults nothing;
// a negative one is an error.
func (t *Task) FaultIn(addr vm.Addr, length int64, write bool) (int, error) {
	if err := checkLength("FaultIn", addr, length); err != nil || length == 0 {
		return 0, err
	}
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	return t.handleFaults(rectSpans{lo: first, hi: last}, write, "FaultIn", addr)
}

// handleFaults is the page-fault handler behind Touch, FaultIn and
// FaultInRect: rounds of faultRound over the spans, at most 16. A round
// that stops at a protection violation takes the SIGSEGV path
// (raiseSegv), and the next round scans the spans again. It returns the
// number of pages serviced, a SIGSEGV counting as one; op and at name
// the entry point in the error of a fault that does not settle.
func (t *Task) handleFaults(spans rectSpans, write bool, op string, at vm.Addr) (int, error) {
	serviced := 0
	for round := 0; round < 16; round++ {
		n, segvAt, segv, err := t.faultRound(spans, write)
		serviced += n
		if err != nil {
			return serviced, err
		}
		if !segv {
			return serviced, nil
		}
		if err := t.raiseSegv(segvAt, write); err != nil {
			return serviced, err
		}
		serviced++
	}
	return serviced, fmt.Errorf("kern: %s at %#x did not settle", op, at)
}

// faultRound is one classify-and-service pass of the page-fault handler
// over ascending page spans, under mmap_sem shared. Chunk by chunk it
// cuts the spans' pages at VMA boundaries, classifies them in one
// batch read (absent, next-touch, NUMA-hint, stale) and services them
// with aggregate costs. It stops at the first page outside a VMA or
// without the access permission, leaving that chunk unclassified and
// unserviced, and reports the page's address for the SIGSEGV path. An
// absent page of a huge mapping is an error: only TouchHuge faults in
// its 2 MiB units, and the 4 KiB walk reads a present unit as absent
// pages too. It returns the number of pages serviced.
func (t *Task) faultRound(spans rectSpans, write bool) (serviced int, segvAt vm.Addr, segv bool, err error) {
	sp := t.Proc.Space
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	lo, hi, ok := spans.next()
	if !ok {
		return 0, 0, false, nil
	}
	// Walk the VMA list once per round instead of binary-searching it
	// for every span: vmas is address-sorted, and pages are visited in
	// ascending order, so a single cursor (vi) suffices. The cursor
	// starts at the first covering VMA by binary search — an address
	// space with thousands of live mappings must not pay a linear scan
	// per fault. Once a page passes the check, every page up to its
	// VMA's end (vmaEnd) does too, so the list is consulted again only
	// when the walk reaches that end.
	vmas := sp.VMAs()
	vi := sort.Search(len(vmas), func(i int) bool { return vmas[i].End > lo.Base() })
	vmaEnd := vm.VPN(0)
	f := &t.scratch.faults
	for ok {
		ci := vm.ChunkIndex(lo)
		cend := vm.VPN((ci + 1) * model.PTEChunkPages)
		pieces := t.scratch.spans[:0]
		for ok && lo < cend {
			end := min(hi, cend)
			for p := lo; p < end; {
				if p >= vmaEnd {
					for vi < len(vmas) && vmas[vi].End <= p.Base() {
						vi++
					}
					if vi >= len(vmas) || vmas[vi].Start > p.Base() || !vmas[vi].Prot.Allows(write) {
						return serviced, p.Base(), true, nil
					}
					vmaEnd = vm.PageOf(vmas[vi].End-1) + 1
				}
				q := min(end, vmaEnd)
				pieces = append(pieces, vm.Span{Lo: p, Hi: q})
				p = q
			}
			if end < hi {
				lo = end
			} else {
				lo, hi, ok = spans.next()
			}
		}
		t.scratch.spans = pieces
		// The page-table cursor is fresh per chunk: servicing the
		// previous chunk slept, and other tasks may have changed the
		// table meanwhile.
		f.Reset()
		cur := sp.PT.Cursor()
		cur.Classify(pieces, write, f)
		// Huge mappings are 2 MiB-aligned and followed by a guard gap,
		// so every VMA that shares a chunk with a huge one is a piece of
		// the same mapping: the VMA of the chunk's last piece tells.
		if len(f.Absent) > 0 && vmas[vi].Flags&vm.VMAHuge != 0 {
			return serviced, 0, false, fmt.Errorf("kern: 4 KiB fault at %#x in a huge mapping; fault its 2 MiB unit in with TouchHuge", f.Absent[0].Base())
		}
		if len(f.Absent)+len(f.Stale) > 0 {
			serviced += len(f.Absent) + len(f.Stale)
			t.serviceChunk(ci, f.Absent, f.Stale)
		}
		if len(f.NextTouch) > 0 {
			serviced += len(f.NextTouch)
			t.ntServiceFaults(f.NextTouch)
		}
		if len(f.NumaHint) > 0 {
			serviced += len(f.NumaHint)
			t.numaServiceFaults(f.NumaHint)
		}
	}
	return serviced, 0, false, nil
}

// pageFaults counts n page faults and publishes them as one PageFault
// event: the entry of every fault path.
func (t *Task) pageFaults(n int) {
	k := t.Proc.K
	k.Stats.Faults += uint64(n)
	if k.bus.Active(telemetry.TopicPageFault) {
		k.bus.Publish(telemetry.Event{
			Topic: telemetry.TopicPageFault,
			Node:  t.Node(), Dst: telemetry.NoNode,
			Task: t.P.ID(), Pages: n,
		})
	}
}

// serviceChunk handles the classified stale and absent pages of one PTE
// chunk with aggregate costs equivalent to per-page fault handling.
// Next-touch and NUMA-hint pages go through ntServiceFaults and
// numaServiceFaults instead. Caller holds mmap_sem shared.
func (t *Task) serviceChunk(ci uint64, absent, stale []vm.VPN) {
	k := t.Proc.K
	sp := t.Proc.Space
	cl := t.Proc.ChunkLock(ci)
	cl.Acquire(t.P)
	defer cl.Release()

	if len(stale) > 0 {
		t.pageFaults(len(stale))
		t.P.Sleep(sim.Time(len(stale)) * k.P.FaultBase)
		t.fixStale(stale)
	}
	if len(absent) == 0 {
		return
	}
	// Another task may have faulted some of the pages in while this one
	// waited for the chunk lock. Those still count as faults and pay the
	// fault entry, but allocate nothing.
	t.pageFaults(len(absent))
	raced := len(absent)
	absent = slices.DeleteFunc(absent, func(p vm.VPN) bool { return sp.PT.Get(p).Present() })
	raced -= len(absent)
	t.P.Sleep(sim.Time(len(absent))*(k.P.FaultBase+k.P.DemandZero) + sim.Time(raced)*k.P.FaultBase)
	// Pages arrive in ascending order, so consecutive ones usually share
	// a VMA: cache the last hit instead of binary-searching per page.
	var v *vm.VMA
	for _, p := range absent {
		if v == nil || !v.Contains(p.Base()) {
			v = sp.Find(p.Base())
		}
		t.demandPage(v, p)
	}
}

// fixStale services minor faults: present pages whose PTE denies an
// access their VMA allows. It restores the VMA's protection, except on
// a replicated page: replicas are mapped read-only, so only a write
// faults there, and it collapses the page to one frame, the faulting
// task's copy or the primary (the COW-style break), at the replica
// control cost plus one TLB shootdown. The pages ascend within one PTE
// chunk, whose lock the caller holds; the caller has counted the faults
// (pageFaults) and paid their entry cost.
func (t *Task) fixStale(pages []vm.VPN) {
	pr := t.Proc
	k := pr.K
	k.Stats.MinorFaults += uint64(len(pages))
	collapsed := 0
	for i := 0; i < len(pages); {
		p := pages[i]
		if pr.replicas[p] != nil {
			pr.collapseReplicas(p, t.Node())
			collapsed++
			i++
			continue
		}
		// Consecutive unreplicated pages of one VMA restore as one
		// page-table range write.
		v := pr.Space.Find(p.Base())
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 && v.Contains(pages[j].Base()) && pr.replicas[pages[j]] == nil {
			j++
		}
		pr.Space.PT.SetFlagsRange(p, pages[j-1]+1, v.Prot.Flags(), vm.PTERead|vm.PTEWrite)
		i = j
	}
	if collapsed > 0 {
		t.P.Sleep(sim.Time(collapsed) * k.P.NTFaultCtl)
		t.tlbShootdown()
	}
}

// demandPage maps a fresh frame at p for a first touch: the page's
// mempolicy target, redirected by the tenancy cap (capTarget), then the
// allocation, the PTE install and the tenant charge at the node the
// frame landed on. It is the one demand-allocation step of the 4 KiB
// fault path and the huge-page fallback. The caller holds p's chunk
// lock and charges the fault costs.
func (t *Task) demandPage(v *vm.VMA, p vm.VPN) {
	k := t.Proc.K
	k.Stats.DemandAllocs++
	f := k.AllocFrame(t.capTarget(t.placeTarget(v, p)))
	t.Proc.Space.PT.Install(p, vm.PTE{Frame: f, Flags: vm.PTEPresent | vm.PTEAccessed | v.Prot.Flags()})
	if ten := t.Proc.Tenant; ten != nil {
		k.Ten.Charge(ten, f.Node, 1)
	}
	// Pages populated after a next-touch mark need no mark themselves:
	// first-touch already places them locally.
}

// capTarget applies the tenancy fast-tier cap to an allocation target:
// a tenant at its cap faulting toward a fast node takes the demotion
// path (the next tier down) instead of spilling across the DRAM tier,
// mirroring cgroup memory limits. If no slow node can absorb the page
// the original target stands — the ledger then counts the landing as a
// cap violation.
func (t *Task) capTarget(target topology.NodeID) topology.NodeID {
	ten := t.Proc.Tenant
	if ten == nil {
		return target
	}
	k := t.Proc.K
	if k.Phys.TierOf(target) != 0 || !ten.WouldBreach(1) {
		return target
	}
	if dst, ok := k.Placer.DemotionTarget(target, true); ok {
		return dst
	}
	return target
}

// placeTarget resolves a page's effective mempolicy (VMA policy, then
// the process default) to its preferred node through the placement
// layer: the one policy-resolution entry point for every fault path.
func (t *Task) placeTarget(v *vm.VMA, p vm.VPN) topology.NodeID {
	return t.Proc.K.Placer.Place(v.Pol, t.Proc.Space.DefaultPol, p, t.Node())
}

// ntServiceFaults services the Migrate-on-next-touch faults of one PTE
// chunk's pages, which the fault round classified without faulting per
// page: it charges their page faults, then runs the paper's kernel
// next-touch implementation (Fig. 2) through the shared migration
// engine on the lazy channel. The engine migrates remote pages to the
// toucher's node, clears the mark, and restores access; already-local
// pages only pay the restore cost. Caller holds mmap_sem shared and no
// chunk locks.
func (t *Task) ntServiceFaults(pages []vm.VPN) {
	k := t.Proc.K
	t.pageFaults(len(pages))
	defer t.P.PushCat(CatNTCtl)()
	t.P.Sleep(sim.Time(len(pages)) * k.P.FaultBase)
	dst := t.Node()
	ops := make([]migrate.Op, len(pages))
	for i, p := range pages {
		ops[i] = migrate.Op{VPN: p, Dst: dst}
	}
	res := k.Migrator(migrate.Patched).Migrate(&migrate.Request{
		P: t.P, Core: t.Core, Space: t.Proc, Ops: ops,
		Path: migrate.PathNextTouch, ClearNextTouch: true,
		CopyCat: CatNTCopy, Priority: t.Proc.MigPrio,
	})
	k.Stats.NTMigrations += uint64(res.Moved)
	k.Stats.NTLocalSkips += uint64(res.Local)
}

// raiseSegv is the SIGSEGV path of the page-fault handler, taken where
// a fault round stopped at an access outside any VMA or denied by its
// protection. It enters the fault (pageFaults, FaultBase), then
// re-checks the VMA under mmap_sem shared: a concurrent mprotect may
// have repaired the mapping meanwhile, and then no signal is raised —
// the handler's next round services the page like any other. Otherwise
// it delivers SIGSEGV to the process handler, or returns ErrSegv if
// none is installed.
func (t *Task) raiseSegv(addr vm.Addr, write bool) error {
	k := t.Proc.K
	t.pageFaults(1)
	t.P.Sleep(k.P.FaultBase)
	t.Proc.MmapSem.RLock(t.P)
	v := t.Proc.Space.Find(addr)
	repaired := v != nil && v.Prot.Allows(write)
	t.Proc.MmapSem.RUnlock()
	if repaired {
		return nil
	}
	k.Stats.Sigsegvs++
	if t.Proc.sigHandler == nil {
		return ErrSegv{Addr: addr, Write: write}
	}
	defer t.P.PushCat(CatFaultSignal)()
	t.P.Sleep(k.P.SignalDeliver)
	h := t.Proc.sigHandler
	// The handler runs with default accounting categories of its own.
	func() {
		end := t.P.PushCat("")
		defer end()
		h(t, SigInfo{Addr: addr, Write: write})
	}()
	t.P.Sleep(k.P.SignalReturn)
	return nil
}
