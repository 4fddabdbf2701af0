// Package core implements the paper's contributions on top of the
// simulated kernel substrate:
//
//   - the user-space Next-touch policy (§3.2): mprotect + SIGSEGV handler
//     that migrates whole application-level regions with (patched)
//     move_pages on first touch;
//   - the kernel Next-touch policy driver (§3.3): the new madvise flag,
//     with migration happening page-by-page in the fault handler;
//   - Lazy Migration (§3.4): mark instead of synchronously migrating,
//     letting pages follow their toucher in the background;
//   - migration decision helpers (§3.4): worksets attached to threads,
//     marked on thread migration, so data follows threads with no
//     affinity bookkeeping in the scheduler.
package core

import (
	"fmt"

	"numamig/internal/kern"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Region is a half-open byte range of the application's address space.
type Region struct {
	Addr vm.Addr
	Len  int64
}

// End returns the first address past the region.
func (r Region) End() vm.Addr { return r.Addr + vm.Addr(r.Len) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a vm.Addr) bool { return a >= r.Addr && a < r.End() }

// UserNTStats counts user-space next-touch activity.
type UserNTStats struct {
	Migrations    uint64 // handler invocations that migrated a region
	PagesMigrated uint64
}

// UserNT is the user-space Next-touch library (Fig. 1): Mark protects a
// region with PROT_NONE; the installed SIGSEGV handler migrates the
// *entire* region to the touching thread's node using move_pages, then
// restores the protection. Because the library knows the application's
// workset structure, it migrates at region granularity rather than page
// granularity, and it remembers where each region ended up.
type UserNT struct {
	Proc *kern.Process
	// Patched selects the move_pages generation the handler calls: the
	// fixed linear syscall, or (false) the pre-2.6.29 quadratic one
	// under the same policy.
	Patched bool
	// Prot is the protection restored after migration (default RW).
	Prot vm.Prot

	regions   []Region
	placement map[vm.Addr]topology.NodeID // region base -> node after migration
	Stats     UserNTStats
	prev      kern.SigHandler
}

// NewUserNT creates the library for a process and installs its SIGSEGV
// handler. patched selects the fixed linear move_pages.
func NewUserNT(proc *kern.Process, patched bool) *UserNT {
	u := &UserNT{Proc: proc, Patched: patched, Prot: vm.ProtRW, placement: map[vm.Addr]topology.NodeID{}}
	proc.OnSegv(u.handle)
	return u
}

// Mark registers the region for next-touch migration and revokes access
// so the next touch faults (mprotect to PROT_NONE).
func (u *UserNT) Mark(t *kern.Task, r Region) error {
	if r.Len <= 0 {
		return fmt.Errorf("core: mark of empty region %+v", r)
	}
	for _, q := range u.regions {
		if r.Addr < q.End() && q.Addr < r.End() {
			return fmt.Errorf("core: region %+v overlaps marked region %+v", r, q)
		}
	}
	var err error
	t.P.InCat(kern.CatMprotectMark, func() {
		err = t.Mprotect(r.Addr, r.Len, vm.ProtNone)
	})
	if err != nil {
		return err
	}
	u.regions = append(u.regions, r)
	return nil
}

// Marked returns the number of currently marked regions.
func (u *UserNT) Marked() int { return len(u.regions) }

// Placement returns the node a region was last migrated to by the
// handler, if known. This is the user-space model's extra knowledge the
// paper highlights in §3.4.
func (u *UserNT) Placement(base vm.Addr) (topology.NodeID, bool) {
	n, ok := u.placement[base]
	return n, ok
}

// handle is the SIGSEGV handler: identify the marked region, migrate it
// wholesale to the toucher's node, restore protection (Fig. 1).
func (u *UserNT) handle(t *kern.Task, info kern.SigInfo) {
	idx := -1
	for i, r := range u.regions {
		if r.Contains(info.Addr) {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Not ours: a real segfault. Leave the region untouched so the
		// kernel's retry loop surfaces the failure.
		return
	}
	r := u.regions[idx]
	u.regions = append(u.regions[:idx], u.regions[idx+1:]...)

	dst := t.Node()
	st, err := t.MovePagesTo(r.Addr, r.Len, dst, u.Patched)
	if err != nil {
		panic("core: user next-touch move_pages failed: " + err.Error())
	}
	moved := 0
	for _, s := range st {
		if s >= 0 {
			moved++
		}
	}
	u.Stats.Migrations++
	u.Stats.PagesMigrated += uint64(moved)
	u.placement[r.Addr] = dst

	t.P.InCat(kern.CatMprotectRest, func() {
		if err := t.Mprotect(r.Addr, r.Len, u.Prot); err != nil {
			panic("core: user next-touch restore failed: " + err.Error())
		}
	})
}

// KernelNT is the thin driver for the kernel next-touch implementation:
// marking is one madvise call; migration happens page-by-page inside the
// page-fault handler with no user-space involvement.
type KernelNT struct {
	Proc *kern.Process
}

// NewKernelNT creates the driver.
func NewKernelNT(proc *kern.Process) *KernelNT { return &KernelNT{Proc: proc} }

// Mark marks the region Migrate-on-next-touch; returns the number of
// present pages marked.
func (kn *KernelNT) Mark(t *kern.Task, r Region) (int, error) {
	return t.Madvise(r.Addr, r.Len, kern.AdvMigrateOnNextTouch)
}

// Unmark clears the mark.
func (kn *KernelNT) Unmark(t *kern.Task, r Region) (int, error) {
	return t.Madvise(r.Addr, r.Len, kern.AdvNormal)
}
