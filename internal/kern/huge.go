package kern

import (
	"fmt"
	"sort"

	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Huge-page support is one of the paper's future-work items (§6: "Huge
// pages are another feature that will have to be studied since they are
// known to help performance by reducing the TLB pressure, but LINUX does
// not currently support their migration"). This file implements 2 MiB
// huge-page mappings and their migration so the repository can quantify
// the win the paper anticipates: one lock round and one bulk copy per
// 2 MiB instead of 512 per-page control operations.
//
// A 2 MiB unit is one page-table entry a level above the PTE pages
// (vm.PageTable.Huge, like Linux's PMD-mapped huge page), with no PTE
// page beneath it. Huge mappings are intentionally separate from the
// 4 KiB fault paths, which read a unit's pages as absent and return an
// error for an absent page of a huge mapping; use TouchHuge /
// MoveHugeRange on them. So a PTE page exists in a huge mapping only
// once an exhaustion fallback filled it.

// MmapHuge creates an anonymous mapping backed by 2 MiB huge pages.
func (t *Task) MmapHuge(length int64, pol vm.Policy, label string) (vm.Addr, error) {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MmapBase)
	t.Proc.MmapSem.Lock(t.P)
	defer t.Proc.MmapSem.Unlock()
	return t.Proc.Space.Map(length, vm.ProtRW, pol, vm.VMAHuge, label)
}

// hugeChunks returns the chunk indices covering a huge range of
// positive length.
func hugeChunks(addr vm.Addr, length int64) (first, last uint64, err error) {
	if addr%model.HugePageSize != 0 {
		return 0, 0, fmt.Errorf("kern: huge range must be 2MB aligned, got %#x", addr)
	}
	first = vm.ChunkIndex(vm.PageOf(addr))
	last = vm.ChunkIndex(vm.PageOf(addr + vm.Addr(length) - 1))
	return first, last, nil
}

// TouchHuge faults in every huge page of [addr, addr+length). Each fault
// allocates one 2 MiB frame on the policy target (first-touch local by
// default), falling back along the zonelist under pressure. When no node
// can host a whole contiguous unit, the fault is served with 512 base
// pages instead — like a failed THP allocation — in a normal PTE page
// (MoveHugeRange reports such 2 MiB -ENOENT). Every 2 MiB of the range
// must lie in a huge mapping, checked before anything faults, and each
// unit is placed by the policy of the mapping it lies in.
// Returns the number of huge pages faulted (base-page fallbacks count).
// A zero length faults nothing; a negative one is an error.
func (t *Task) TouchHuge(addr vm.Addr, length int64) (int, error) {
	if err := checkLength("TouchHuge", addr, length); err != nil || length == 0 {
		return 0, err
	}
	k := t.Proc.K
	sp := t.Proc.Space
	first, last, err := hugeChunks(addr, length)
	if err != nil {
		return 0, err
	}
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	// A unit faulted where no mapping lies is one no munmap would free.
	for ci := first; ci <= last; ci++ {
		if hugeVMA(sp, ci) == nil {
			return 0, fmt.Errorf("kern: TouchHuge outside a huge mapping at %#x", vm.VPN(ci*model.PTEChunkPages).Base())
		}
	}
	// populated reports whether the 2 MiB at base is already served, as
	// a huge unit or by an exhaustion fallback's PTE page, which holds
	// whatever base pages an unmap left of it. Checked once lock-free
	// for the common skip, re-checked under the chunk lock before
	// faulting (a concurrent toucher may have populated it between the
	// check and the lock).
	populated := func(base vm.VPN) bool {
		return sp.PT.Huge(base).Present() || sp.PT.Chunk(base) != nil
	}
	n := 0
	for ci := first; ci <= last; ci++ {
		base := vm.VPN(ci * model.PTEChunkPages)
		if populated(base) {
			continue
		}
		cl := t.Proc.ChunkLock(ci)
		cl.Acquire(t.P)
		if !populated(base) {
			t.pageFaults(1)
			t.P.Sleep(k.P.FaultBase)
			// Key policy interleaving on the huge-unit index, not the
			// base VPN: chunk bases are multiples of 512, so a VPN key
			// would collapse every interleave onto the node set's first
			// entry.
			v := hugeVMA(sp, ci)
			target := t.placeTarget(v, vm.VPN(ci))
			if hf := k.Placer.AllocHugePage(target); hf != nil {
				sp.PT.SetHuge(base, vm.PTE{Frame: hf, Flags: vm.PTEPresent | vm.PTEAccessed})
				// Zeroing 2 MiB.
				t.P.Sleep(sim.Time(model.PTEChunkPages) * k.P.DemandZero / 4)
			} else {
				t.hugeFallback(v, base)
			}
			n++
		}
		cl.Release()
	}
	return n, nil
}

// hugeVMA returns the huge mapping that 2 MiB unit ci lies in: the
// first mapping that overlaps it, if that one is huge; else nil. An
// unmap can leave a huge mapping covering part of a unit, and unmapping
// that part later frees the unit, as Space.Unmap frees every unit its
// mappings overlap.
func hugeVMA(sp *vm.Space, ci uint64) *vm.VMA {
	lo := vm.VPN(ci * model.PTEChunkPages).Base()
	vs := sp.VMAs()
	i := sort.Search(len(vs), func(i int) bool { return vs[i].End > lo })
	if i == len(vs) || vs[i].Start >= lo+model.HugePageSize || vs[i].Flags&vm.VMAHuge == 0 {
		return nil
	}
	return vs[i]
}

// hugeFallback serves one huge fault with 512 base pages when no node
// can host a contiguous 2 MiB unit: each page takes the 4 KiB fault
// path's demand-allocation step (so the pages may spread over several
// nodes, and a tenant is charged for them), at per-page demand-zero
// cost and without the huge unit's TLB win. Caller holds the chunk
// lock.
func (t *Task) hugeFallback(v *vm.VMA, base vm.VPN) {
	k := t.Proc.K
	k.Stats.HugeFallbacks++
	for p := base; p < base+model.PTEChunkPages; p++ {
		t.demandPage(v, p)
	}
	t.P.Sleep(sim.Time(model.PTEChunkPages) * k.P.DemandZero)
}

// MoveHugeRange migrates the huge pages of [addr, addr+length) to node.
// One lock round and one bulk copy per 2 MiB page: the per-page control
// cost that dominates 4 KiB migration (Fig. 6) is paid once per 512
// pages. The request runs through the shared migration engine as huge
// ops, so pinned units are retried with backoff and reported -EBUSY
// (left in place) exactly like pinned 4 KiB pages. Returns the number
// of huge pages migrated and the per-unit status (resulting node,
// StatusNoEnt, or StatusBusy for units that stayed pinned through every
// retry pass), parallel to the 2 MiB units of the range. A zero length
// moves nothing and returns an empty status; a negative one is an
// error.
func (t *Task) MoveHugeRange(addr vm.Addr, length int64, node topology.NodeID) (int, []int, error) {
	if err := checkLength("MoveHugeRange", addr, length); err != nil {
		return 0, nil, err
	}
	if length == 0 {
		return 0, []int{}, nil
	}
	k := t.Proc.K
	sp := t.Proc.Space
	v := sp.Find(addr)
	if v == nil || v.Flags&vm.VMAHuge == 0 {
		return 0, nil, fmt.Errorf("kern: MoveHugeRange outside a huge mapping at %#x", addr)
	}
	first, last, err := hugeChunks(addr, length)
	if err != nil {
		return 0, nil, err
	}
	k.Stats.Syscalls++
	defer t.P.PushCat(CatMovePagesCtl)()
	t.P.Sleep(k.P.SyscallBase)
	eng := k.Migrator(migrate.Patched)
	eng.SetupPri(t.P, migrate.PathMovePages, t.Proc.MigPrio)

	ops := make([]migrate.Op, 0, last-first+1)
	for ci := first; ci <= last; ci++ {
		ops = append(ops, migrate.Op{VPN: vm.VPN(ci * model.PTEChunkPages), Dst: node, Huge: true})
	}
	status := make([]int, len(ops))
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	res := eng.Migrate(&migrate.Request{
		P: t.P, Core: t.Core, Space: t.Proc,
		Ops: ops, Status: status,
		Path: migrate.PathMovePages, Flush: true,
		CopyCat: CatMovePagesCopy, Priority: t.Proc.MigPrio,
	})
	k.Stats.MovePagesPages += uint64(res.Moved) * model.PTEChunkPages
	return res.Moved, status, nil
}

// HugeNode returns the node holding the huge page at addr, or -1.
func (t *Task) HugeNode(addr vm.Addr) int {
	u := t.Proc.Space.PT.Huge(vm.PageOf(addr))
	if !u.Present() {
		return -1
	}
	return int(u.Frame.Node)
}
