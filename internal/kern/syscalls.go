package kern

import (
	"fmt"

	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Advice values for Madvise.
type Advice int

// Supported madvise advice.
const (
	// AdvMigrateOnNextTouch is the paper's new madvise parameter: mark
	// the range Migrate-on-next-touch. The kernel strips access bits
	// from present PTEs so the next touch faults and migrates the page
	// to the toucher's node (§3.3).
	AdvMigrateOnNextTouch Advice = iota
	// AdvNormal clears the next-touch mark.
	AdvNormal
)

// Page-status codes returned by MovePages, mirroring Linux. Defined by
// the shared migration engine.
const (
	StatusNoEnt = migrate.StatusNoEnt // page not present (-ENOENT)
	StatusBusy  = migrate.StatusBusy  // page pinned through every retry (-EBUSY)
)

// Mmap creates an anonymous mapping.
func (t *Task) Mmap(length int64, prot vm.Prot, pol vm.Policy, flags vm.VMAFlags, label string) (vm.Addr, error) {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MmapBase)
	t.Proc.MmapSem.Lock(t.P)
	defer t.Proc.MmapSem.Unlock()
	return t.Proc.Space.Map(length, prot, pol, flags, label)
}

// Munmap removes a mapping, along with the replica copies of its
// replicated pages.
func (t *Task) Munmap(addr vm.Addr, length int64) error {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MmapBase)
	t.Proc.MmapSem.Lock(t.P)
	defer t.Proc.MmapSem.Unlock()
	if err := t.Proc.Space.Unmap(addr, length); err != nil {
		return err
	}
	t.Proc.dropReplicas(vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1)
	t.tlbShootdown()
	return nil
}

// Mprotect changes protection of [addr, addr+length): updates the VMAs
// and strips now-forbidden hardware bits from present PTEs, then flushes
// TLBs. Used by the user-space next-touch implementation (§3.2).
func (t *Task) Mprotect(addr vm.Addr, length int64, prot vm.Prot) error {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MprotectBase)
	t.Proc.MmapSem.Lock(t.P)
	defer t.Proc.MmapSem.Unlock()
	end := vm.PageCeil(addr + vm.Addr(length))
	if err := t.Proc.Space.Apply(vm.PageFloor(addr), end, func(v *vm.VMA) {
		v.Prot = prot
	}); err != nil {
		return err
	}
	first, last := vm.PageOf(addr), vm.PageOf(end-1)+1
	n := t.Proc.Space.PT.SetFlagsRange(first, last, prot.Flags(), vm.PTERead|vm.PTEWrite)
	t.P.Sleep(sim.Time(n) * k.P.MprotectPage)
	t.tlbShootdown()
	return nil
}

// Madvise applies advice to [addr, addr+length). For
// AdvMigrateOnNextTouch it sets the next-touch PTE bit on present pages
// and removes their access bits (they will fault on next touch); the TLB
// is flushed once (§3.3).
func (t *Task) Madvise(addr vm.Addr, length int64, adv Advice) (int, error) {
	k := t.Proc.K
	k.Stats.Syscalls++
	defer t.P.PushCat(CatMadvise)()
	t.P.Sleep(k.P.SyscallBase + k.P.MadviseBase)
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	if t.Proc.Space.Find(addr) == nil {
		return 0, fmt.Errorf("kern: madvise on unmapped address %#x", addr)
	}
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	var set, clear uint8
	switch adv {
	case AdvMigrateOnNextTouch:
		set = vm.PTENextTouch
	case AdvNormal:
		clear = vm.PTENextTouch
	}
	n := t.Proc.Space.PT.SetFlagsRange(first, last, set, clear)
	t.P.Sleep(sim.Time(n) * k.P.MadvisePage)
	t.tlbShootdown()
	return n, nil
}

// SetMempolicy sets the process default policy.
func (t *Task) SetMempolicy(pol vm.Policy) {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase)
	t.Proc.Space.DefaultPol = pol
}

// GetMempolicy returns the process default policy.
func (t *Task) GetMempolicy() vm.Policy {
	t.Proc.K.Stats.Syscalls++
	t.P.Sleep(t.Proc.K.P.SyscallBase)
	return t.Proc.Space.DefaultPol
}

// GetVMAPolicy returns the policy of the mapping containing addr.
func (t *Task) GetVMAPolicy(addr vm.Addr) (vm.Policy, error) {
	t.Proc.K.Stats.Syscalls++
	t.P.Sleep(t.Proc.K.P.SyscallBase)
	v := t.Proc.Space.Find(addr)
	if v == nil {
		return vm.Policy{}, fmt.Errorf("kern: get_mempolicy on unmapped address %#x", addr)
	}
	return v.Pol, nil
}

// MbindFlags modify Mbind behaviour, mirroring MPOL_MF_* flags.
type MbindFlags uint8

// Mbind flags.
const (
	// MbindMove migrates already-allocated pages that violate the new
	// policy (MPOL_MF_MOVE).
	MbindMove MbindFlags = 1 << iota
)

// Mbind sets the policy of an address range. With MbindMove, pages that
// no longer satisfy the policy are migrated immediately (through the
// same batched path as move_pages).
func (t *Task) Mbind(addr vm.Addr, length int64, pol vm.Policy, flags ...MbindFlags) error {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MmapBase)
	var fl MbindFlags
	for _, f := range flags {
		fl |= f
	}
	t.Proc.MmapSem.Lock(t.P)
	err := t.Proc.Space.Apply(vm.PageFloor(addr), vm.PageCeil(addr+vm.Addr(length)), func(v *vm.VMA) {
		v.Pol = pol
	})
	t.Proc.MmapSem.Unlock()
	if err != nil || fl&MbindMove == 0 {
		return err
	}
	// MPOL_MF_MOVE: collect misplaced pages, then migrate them.
	var addrs []vm.Addr
	var nodes []topology.NodeID
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	t.Proc.Space.PT.Extents(first, last, false, func(e vm.Ext) bool {
		for p := e.Start; p < e.Start+vm.VPN(e.N); p++ {
			if want := k.Placer.Target(pol, p, t.Node()); e.Node != want {
				addrs = append(addrs, p.Base())
				nodes = append(nodes, want)
			}
		}
		return true
	})
	if len(addrs) == 0 {
		return nil
	}
	_, err = t.MovePages(addrs, nodes, true)
	return err
}

// QueryPages is move_pages' query mode (nodes == NULL in Linux): it
// returns the node of each page without migrating, or StatusNoEnt for
// absent pages.
func (t *Task) QueryPages(addrs []vm.Addr) []int {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase)
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	status := make([]int, len(addrs))
	var n int
	for i, a := range addrs {
		pte := t.Proc.Space.PT.Get(vm.PageOf(a))
		if !pte.Present() {
			status[i] = StatusNoEnt
			continue
		}
		status[i] = int(pte.Frame.Node)
		n++
	}
	// Page-table walk cost, no locking beyond mmap_sem.
	t.P.Sleep(sim.Time(len(addrs)) * k.P.MadvisePage)
	return status
}

// GetNode returns the NUMA node of the page backing addr, or -1 if not
// present (the move_pages query mode, nodes == nil).
func (t *Task) GetNode(addr vm.Addr) int {
	pte := t.Proc.Space.PT.Get(vm.PageOf(addr))
	if !pte.Present() {
		return -1
	}
	return int(pte.Frame.Node)
}

// GetNodes returns the backing node of every page of [addr, addr+length)
// (-1 for non-present pages) in one bulk query: a single syscall charge
// and one mmap_sem round for the whole range, where a GetNode loop pays
// per page. Huge pages report their unit's node for each covered page.
func (t *Task) GetNodes(addr vm.Addr, length int64) []int {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase)
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	n := vm.PagesIn(addr, length)
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	base := vm.PageOf(addr)
	t.Proc.Space.PT.Extents(base, base+vm.VPN(n), false, func(e vm.Ext) bool {
		for i := 0; i < e.N; i++ {
			out[int(e.Start-base)+i] = int(e.Node)
		}
		return true
	})
	for ci := vm.ChunkIndex(base); ci <= vm.ChunkIndex(base+vm.VPN(n)-1); ci++ {
		c := t.Proc.Space.PT.Chunk(vm.VPN(ci * model.PTEChunkPages))
		if c == nil || !c.Huge || c.HugeFrame == nil {
			continue
		}
		for p := vm.VPN(ci * model.PTEChunkPages); p < vm.VPN((ci+1)*model.PTEChunkPages); p++ {
			if p >= base && p < base+vm.VPN(n) {
				out[p-base] = int(c.HugeFrame.Node)
			}
		}
	}
	// One page-table walk, no locking beyond mmap_sem.
	t.P.Sleep(sim.Time(n) * k.P.MadvisePage)
	return out
}

// MovePages is the move_pages(2) system call: migrate the pages holding
// addrs[i] to nodes[i]. patched selects the paper's linear
// implementation; !patched reproduces the pre-2.6.29 quadratic behaviour
// (a linear scan of the whole destination-node array for every page).
// The returned status slice holds, per page, the resulting node or a
// negative errno-style code.
func (t *Task) MovePages(addrs []vm.Addr, nodes []topology.NodeID, patched bool) ([]int, error) {
	return t.MovePagesStrategy(addrs, nodes, migrate.StrategyFor(patched))
}

// MovePagesStrategy is MovePages with an explicit engine strategy. The
// syscall is a thin shell: argument checking, syscall entry cost, and
// mmap_sem; the batched per-node pipeline lives in internal/migrate.
func (t *Task) MovePagesStrategy(addrs []vm.Addr, nodes []topology.NodeID, s migrate.Strategy) ([]int, error) {
	k := t.Proc.K
	if len(addrs) != len(nodes) {
		return nil, fmt.Errorf("kern: move_pages: %d addrs vs %d nodes", len(addrs), len(nodes))
	}
	k.Stats.Syscalls++
	k.Stats.MovePagesCalls++
	ops := make([]migrate.Op, len(addrs))
	for i := range addrs {
		ops[i] = migrate.Op{VPN: vm.PageOf(addrs[i]), Dst: nodes[i]}
	}
	status := make([]int, len(addrs))

	defer t.P.PushCat(CatMovePagesCtl)()
	t.P.Sleep(k.P.SyscallBase)
	eng := k.Migrator(s)
	eng.SetupPri(t.P, migrate.PathMovePages, t.Proc.MigPrio)
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	res := eng.Migrate(&migrate.Request{
		P: t.P, Core: t.Core, Space: t.Proc,
		Ops: ops, Status: status,
		Path: migrate.PathMovePages, Flush: true,
		CopyCat: CatMovePagesCopy, Priority: t.Proc.MigPrio,
	})
	k.Stats.MovePagesPages += uint64(res.Moved)
	return status, nil
}

// MovePagesTo migrates every page of [addr, addr+length) to one node:
// the common pattern of the user-space next-touch handler.
func (t *Task) MovePagesTo(addr vm.Addr, length int64, node topology.NodeID, patched bool) ([]int, error) {
	return t.MovePagesRegion(addr, length, node, migrate.StrategyFor(patched))
}

// MovePagesRegion is MovePagesTo with an explicit engine strategy.
func (t *Task) MovePagesRegion(addr vm.Addr, length int64, node topology.NodeID, s migrate.Strategy) ([]int, error) {
	n := vm.PagesIn(addr, length)
	addrs := make([]vm.Addr, n)
	nodes := make([]topology.NodeID, n)
	base := vm.PageOf(addr)
	for i := 0; i < n; i++ {
		addrs[i] = (base + vm.VPN(i)).Base()
		nodes[i] = node
	}
	return t.MovePagesStrategy(addrs, nodes, s)
}

// MigratePages is the migrate_pages(2) system call: move every page of
// the whole process that resides on a node in from to the corresponding
// node in to. The address space is traversed in order, which locks less
// per page than move_pages' arbitrary page sets (§4.2); the gathered
// orders run through the shared migration engine in one request.
func (t *Task) MigratePages(from, to []topology.NodeID) (int, error) {
	k := t.Proc.K
	if len(from) != len(to) {
		return 0, fmt.Errorf("kern: migrate_pages: mask sizes differ")
	}
	k.Stats.Syscalls++
	dst := map[topology.NodeID]topology.NodeID{}
	for i := range from {
		dst[from[i]] = to[i]
	}

	defer t.P.PushCat(CatMovePagesCtl)()
	t.P.Sleep(k.P.SyscallBase)
	eng := k.Migrator(migrate.Patched)
	eng.SetupPri(t.P, migrate.PathMigratePages, t.Proc.MigPrio)
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()

	// Gather: in-order walk of the address space for misplaced pages.
	var ops []migrate.Op
	for _, v := range t.Proc.Space.VMAs() {
		first, last := vm.PageOf(v.Start), vm.PageOf(v.End-1)+1
		t.Proc.Space.PT.Extents(first, last, false, func(e vm.Ext) bool {
			if d, ok := dst[e.Node]; ok && d != e.Node {
				for p := e.Start; p < e.Start+vm.VPN(e.N); p++ {
					ops = append(ops, migrate.Op{VPN: p, Dst: d})
				}
			}
			return true
		})
	}
	res := eng.Migrate(&migrate.Request{
		P: t.P, Core: t.Core, Space: t.Proc, Ops: ops,
		Path: migrate.PathMigratePages, Flush: true,
		CopyCat: CatMovePagesCopy, Priority: t.Proc.MigPrio,
		// The gather walk above ran under mmap_sem only; re-check the
		// source mask under the chunk lock in case a page moved since.
		Revalidate: func(op migrate.Op, src topology.NodeID) bool {
			d, ok := dst[src]
			return ok && d == op.Dst
		},
	})
	k.Stats.MigratePages += uint64(res.Moved)
	return res.Moved, nil
}
