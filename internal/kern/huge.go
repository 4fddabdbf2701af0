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

// Huge-page support is one of the paper's future-work items (§6: "Huge
// pages are another feature that will have to be studied since they are
// known to help performance by reducing the TLB pressure, but LINUX does
// not currently support their migration"). This file implements 2 MiB
// huge-page mappings and their migration so the repository can quantify
// the win the paper anticipates: one lock round and one bulk copy per
// 2 MiB instead of 512 per-page control operations.
//
// Huge mappings are managed at page-table-chunk granularity and are
// intentionally separate from the 4 KiB fault paths; use TouchHuge /
// MoveHugeRange on them.

// MmapHuge creates an anonymous mapping backed by 2 MiB huge pages.
func (t *Task) MmapHuge(length int64, pol vm.Policy, label string) (vm.Addr, error) {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MmapBase)
	t.Proc.MmapSem.Lock(t.P)
	defer t.Proc.MmapSem.Unlock()
	return t.Proc.Space.Map(length, vm.ProtRW, pol, vm.VMAHuge, label)
}

// hugeChunks returns the chunk indices covering a huge range.
func hugeChunks(addr vm.Addr, length int64) (first, last uint64, err error) {
	if addr%model.HugePageSize != 0 {
		return 0, 0, fmt.Errorf("kern: huge range must be 2MB aligned, got %#x", addr)
	}
	if length <= 0 {
		return 0, 0, fmt.Errorf("kern: empty huge range")
	}
	first = vm.ChunkIndex(vm.PageOf(addr))
	last = vm.ChunkIndex(vm.PageOf(addr + vm.Addr(length) - 1))
	return first, last, nil
}

// TouchHuge faults in every huge page of [addr, addr+length). Each fault
// allocates one 2 MiB frame on the policy target (first-touch local by
// default), falling back along the zonelist under pressure. When no node
// can host a whole contiguous unit, the fault is served with 512 base
// pages instead — like a failed THP allocation — and the chunk stays a
// normal 4 KiB chunk (MoveHugeRange reports such chunks -ENOENT).
// Returns the number of huge pages faulted (base-page fallbacks count).
func (t *Task) TouchHuge(addr vm.Addr, length int64) (int, error) {
	k := t.Proc.K
	sp := t.Proc.Space
	v := sp.Find(addr)
	if v == nil || v.Flags&vm.VMAHuge == 0 {
		return 0, fmt.Errorf("kern: TouchHuge outside a huge mapping at %#x", addr)
	}
	first, last, err := hugeChunks(addr, length)
	if err != nil {
		return 0, err
	}
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	// populated reports whether the chunk is already served, as a huge
	// unit or by a completed exhaustion fallback. Checked once
	// lock-free for the common skip, re-checked under the chunk lock
	// before faulting (a concurrent toucher may have populated it
	// between the check and the lock).
	populated := func(c *vm.Chunk) bool {
		return (c.Huge && c.HugeFrame != nil) || c.HugeFallback
	}
	n := 0
	for ci := first; ci <= last; ci++ {
		base := vm.VPN(ci * model.PTEChunkPages)
		c := sp.PT.ChunkOrCreate(base)
		if populated(c) {
			continue
		}
		cl := t.Proc.chunkLock(ci)
		cl.Acquire(t.P)
		if !populated(c) {
			k.Stats.Faults++
			if k.bus.Active(telemetry.TopicPageFault) {
				k.bus.Publish(telemetry.Event{
					Topic: telemetry.TopicPageFault,
					Node:  t.Node(), Dst: telemetry.NoNode,
					Task: t.P.ID(), Pages: 1,
				})
			}
			t.P.Sleep(k.P.FaultBase)
			// Key policy interleaving on the huge-unit index, not the
			// base VPN: chunk bases are multiples of 512, so a VPN key
			// would collapse every interleave onto the node set's first
			// entry.
			target := t.placeTarget(v, vm.VPN(ci))
			if hf := k.Placer.AllocHugePage(target); hf != nil {
				c.Huge = true
				c.HugeFrame = hf
				c.HugeFlags = vm.PTEPresent | vm.PTEAccessed
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

// hugeFallback serves one huge fault with 512 base pages when no node
// can host a contiguous 2 MiB unit: each page allocates through the
// normal placement path (so the pages may spread over several nodes),
// at per-page demand-zero cost and without the huge unit's TLB win.
// Caller holds the chunk lock.
func (t *Task) hugeFallback(v *vm.VMA, base vm.VPN) {
	k := t.Proc.K
	k.Stats.HugeFallbacks++
	k.Stats.DemandAllocs += model.PTEChunkPages
	sp := t.Proc.Space
	for p := base; p < base+model.PTEChunkPages; p++ {
		f := t.allocFrame(t.placeTarget(v, p))
		sp.PT.Install(p, vm.PTE{Frame: f, Flags: vm.PTEPresent | vm.PTEAccessed | v.Prot.Flags()})
	}
	sp.PT.Chunk(base).HugeFallback = true
	t.P.Sleep(sim.Time(model.PTEChunkPages) * k.P.DemandZero)
}

// MoveHugeRange migrates the huge pages of [addr, addr+length) to node.
// One lock round and one bulk copy per 2 MiB page: the per-page control
// cost that dominates 4 KiB migration (Fig. 6) is paid once per 512
// pages. The request runs through the shared migration engine as huge
// ops, so pinned units are retried with backoff and reported -EBUSY
// (left in place) exactly like pinned 4 KiB pages. Returns the number
// of huge pages migrated and, when any unit stayed pinned, the per-unit
// status slice.
func (t *Task) MoveHugeRange(addr vm.Addr, length int64, node topology.NodeID) (int, error) {
	moved, _, err := t.MoveHugeRangeStatus(addr, length, node)
	return moved, err
}

// MoveHugeRangeStatus is MoveHugeRange returning the per-unit status
// (resulting node, StatusNoEnt, or StatusBusy for units that stayed
// pinned through every retry pass), parallel to the 2 MiB units of the
// range.
func (t *Task) MoveHugeRangeStatus(addr vm.Addr, length int64, node topology.NodeID) (int, []int, error) {
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
	c := t.Proc.Space.PT.Chunk(vm.PageOf(addr))
	if c == nil || !c.Huge || c.HugeFrame == nil {
		return -1
	}
	return int(c.HugeFrame.Node)
}
