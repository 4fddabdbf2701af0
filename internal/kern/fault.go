package kern

import (
	"fmt"

	"numamig/internal/mem"
	"numamig/internal/migrate"
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

// Touch performs one application access to addr, taking page faults as
// needed (demand allocation, kernel next-touch migration, SIGSEGV
// delivery). It is the single-address path; bulk accesses should use
// AccessRange/FaultIn.
func (t *Task) Touch(addr vm.Addr, write bool) error {
	for attempt := 0; attempt < 16; attempt++ {
		// Hardware fast path: sets accessed/dirty (a compact run only
		// splits when it gains a new bit).
		if t.Proc.Space.PT.Touch(vm.PageOf(addr), write) {
			return nil
		}
		if err := t.fault(addr, write); err != nil {
			return err
		}
	}
	return fmt.Errorf("kern: touch of %#x did not settle after 16 faults", addr)
}

// fault runs the page-fault handler once for addr. On return either the
// PTE has been fixed, or a user SIGSEGV handler ran (the access must be
// retried), or an error is returned.
func (t *Task) fault(addr vm.Addr, write bool) error {
	k := t.Proc.K
	k.Stats.Faults++
	if k.bus.Active(telemetry.TopicPageFault) {
		k.bus.Publish(telemetry.Event{
			Topic: telemetry.TopicPageFault,
			Node:  t.Node(), Dst: telemetry.NoNode,
			Task: t.P.ID(), Pages: 1,
		})
	}
	t.P.Sleep(k.P.FaultBase)

	sp := t.Proc.Space
	t.Proc.MmapSem.RLock(t.P)
	v := sp.Find(addr)
	if v == nil {
		t.Proc.MmapSem.RUnlock()
		return t.raiseSegv(addr, write)
	}
	if !v.Prot.Allows(write) {
		t.Proc.MmapSem.RUnlock()
		return t.raiseSegv(addr, write)
	}

	vpn := vm.PageOf(addr)
	cl := t.Proc.chunkLock(vm.ChunkIndex(vpn))
	cl.Acquire(t.P)
	pte := sp.PT.Get(vpn)
	nextTouch := false
	numaHint := false
	switch {
	case vm.FlagsAllow(pte.Flags, write):
		// Raced with another thread that already fixed it.
	case pte.Flags&vm.PTEPresent == 0:
		t.demandAlloc(v, vpn)
	case pte.Flags&vm.PTENextTouch != 0:
		// Serviced below, after the chunk lock is dropped: the engine
		// takes the chunk lock itself.
		nextTouch = true
	case pte.Flags&vm.PTENumaHint != 0:
		// AutoNUMA hinting fault: serviced below (the service path
		// takes the chunk lock itself).
		numaHint = true
	default:
		// Present but stale permissions (e.g. after mprotect restore):
		// minor fault, install VMA protection.
		k.Stats.MinorFaults++
		sp.PT.SetFlagsRange(vpn, vpn+1, v.Prot.Flags(), vm.PTERead|vm.PTEWrite)
	}
	cl.Release()
	if nextTouch {
		t.ntMigratePages([]vm.VPN{vpn})
	}
	if numaHint {
		t.numaHintFaults([]vm.VPN{vpn})
	}
	t.Proc.MmapSem.RUnlock()
	return nil
}

// demandAlloc services a not-present fault: allocate per policy near the
// toucher (first-touch), zero, map. The entry is installed through the
// extent layer, so a stream of sequential demand faults grows one run.
func (t *Task) demandAlloc(v *vm.VMA, vpn vm.VPN) {
	k := t.Proc.K
	k.Stats.DemandAllocs++
	f := t.allocFrame(t.capTarget(t.placeTarget(v, vpn)))
	t.P.Sleep(k.P.DemandZero)
	t.Proc.Space.PT.Install(vpn, vm.PTE{Frame: f, Flags: vm.PTEPresent | vm.PTEAccessed | v.Prot.Flags()})
	t.chargeTenant(f)
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

// chargeTenant charges one freshly allocated frame to the process's
// tenant, at the node the page actually landed on.
func (t *Task) chargeTenant(f *mem.Frame) {
	if ten := t.Proc.Tenant; ten != nil {
		t.Proc.K.Ten.Charge(ten, f.Node, 1)
	}
}

// placeTarget resolves a page's effective mempolicy (VMA policy, then
// the process default) to its preferred node through the placement
// layer: the one policy-resolution entry point for every fault path.
func (t *Task) placeTarget(v *vm.VMA, p vm.VPN) topology.NodeID {
	return t.Proc.K.Placer.Place(v.Pol, t.Proc.Space.DefaultPol, p, t.Node())
}

// allocFrame allocates a frame on target through the placement layer,
// which falls back along the zonelist when the target cannot take it.
func (t *Task) allocFrame(target topology.NodeID) *mem.Frame {
	return t.Proc.K.AllocFrame(target)
}

// ntServiceFaults charges the page faults that delivered a batch of
// next-touch pages (the bulk fault paths classify without faulting per
// page), then migrates them through the shared engine.
func (t *Task) ntServiceFaults(pages []vm.VPN) {
	k := t.Proc.K
	k.Stats.Faults += uint64(len(pages))
	k.bus.Publish(telemetry.Event{
		Topic: telemetry.TopicPageFault,
		Node:  t.Node(), Dst: telemetry.NoNode,
		Task: t.P.ID(), Pages: len(pages),
	})
	t.P.InCat(CatNTCtl, func() {
		t.P.Sleep(sim.Time(len(pages)) * k.P.FaultBase)
	})
	t.ntMigratePages(pages)
}

// ntMigratePages services Migrate-on-next-touch faults for a set of
// pages (all within one PTE chunk when called from the bulk fault path):
// the paper's kernel next-touch implementation (Fig. 2), routed through
// the shared migration engine on the lazy channel. The engine migrates
// remote pages to the toucher's node, clears the mark, and restores
// access; already-local pages only pay the restore cost. Caller holds
// mmap_sem shared and no chunk locks.
func (t *Task) ntMigratePages(pages []vm.VPN) {
	k := t.Proc.K
	dst := t.Node()
	defer t.P.PushCat(CatNTCtl)()
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

// raiseSegv delivers SIGSEGV to the process handler, or returns ErrSegv
// if none is installed.
func (t *Task) raiseSegv(addr vm.Addr, write bool) error {
	k := t.Proc.K
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
