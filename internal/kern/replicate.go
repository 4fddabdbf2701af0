package kern

import (
	"fmt"

	"numamig/internal/mem"
	"numamig/internal/migrate"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Read-only page replication is the second future-work item of §6
// ("replicating read-only pages among NUMA nodes so as to achieve local
// access performance from anywhere"). Replicated pages keep their home
// frame plus one copy per other node. Every bulk read (AccessRange, the
// rect traffic paths, Memcpy's source) is served by the reader's copy,
// from the node that copy's frame lives on. A write collapses the
// replica set back to a single frame (the writer's node), like a COW
// break.

// ReplicaStats counts replication activity.
type ReplicaStats struct {
	PagesReplicated uint64 // page-copies created
	Collapses       uint64 // replica sets torn down by writes
	LocalReads      uint64 // page-reads served by a copy on the reader's node
}

// replicaSet tracks the per-node copies of one page.
type replicaSet struct {
	frames []*mem.Frame    // index = node id; nil where absent
	home   topology.NodeID // slot of the mapped (primary) frame; the others are copies
}

// Replicas returns the process's replica statistics.
func (pr *Process) Replicas() ReplicaStats { return pr.replicaStats }

// servingNode returns the node that serves a read of page v, whose
// mapped frame lives on home, by a task on reader: the node the
// reader's copy lives on when v has one, else home. A copy made under
// memory pressure may have landed off the reader's node, so local
// reports whether the read is served on the reader's node by a copy.
func (pr *Process) servingNode(v vm.VPN, home, reader topology.NodeID) (node topology.NodeID, local bool) {
	if rs := pr.replicas[v]; rs != nil {
		if f := rs.frames[reader]; f != nil {
			return f.Node, f.Node == reader
		}
	}
	return home, false
}

// ReplicateRange creates read-only replicas of every resident page of
// [addr, addr+length) on every node. The pages are write-protected; the
// next write collapses the replicas. Returns the number of page-copies
// created; a zero length creates none.
func (t *Task) ReplicateRange(addr vm.Addr, length int64) (int, error) {
	k := t.Proc.K
	pr := t.Proc
	sp := pr.Space
	if sp.Find(addr) == nil {
		return 0, fmt.Errorf("kern: replicate of unmapped address %#x", addr)
	}
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MadviseBase)
	if length == 0 {
		return 0, nil
	}
	pr.MmapSem.RLock(t.P)
	defer pr.MmapSem.RUnlock()
	if pr.replicas == nil {
		pr.replicas = map[vm.VPN]*replicaSet{}
	}

	// Physical copies run through the shared migration engine: one op
	// per (page, replica node), batched per chunk with one bulk transfer
	// per node pair on the lazy channel. The replica node set comes from
	// the placement layer: every node except the page's home, minus
	// nodes under memory pressure (a copy there would evict something
	// more useful). Replica registration and write protection happen in
	// the OnCopied hook, under the same chunk-lock hold as the copy
	// itself, so a page is never copied-but-writable across a simulated
	// yield; the TLB flush comes last (COW-break ordering).
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	nodes := k.M.NumNodes()
	var ops []migrate.Op
	expect := map[vm.VPN]int{}
	copies := 0
	sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
		for p := e.Start; p < e.Start+vm.VPN(e.N); p++ {
			if _, done := pr.replicas[p]; done {
				continue
			}
			copies++
			for _, n := range k.Placer.ReplicaNodes(e.Node) {
				ops = append(ops, migrate.Op{VPN: p, Dst: n})
				expect[p]++
			}
		}
		return true
	})
	type repState struct {
		rs   *replicaSet
		done int
	}
	states := map[vm.VPN]*repState{}
	created := 0
	k.Migrator(migrate.Patched).Replicate(&migrate.Request{
		P: t.P, Core: t.Core, Space: pr, Ops: ops,
		OnCopied: func(x int, f *mem.Frame) {
			p := ops[x].VPN
			st := states[p]
			if st == nil {
				st = &repState{rs: &replicaSet{frames: make([]*mem.Frame, nodes)}}
				states[p] = st
			}
			if f != nil {
				// Index by the intended node: under memory pressure the
				// frame may physically live elsewhere (AllocFrame
				// fallback), but the slot keying must stay collision-free.
				// A read serves from where the frame lives (servingNode).
				st.rs.frames[ops[x].Dst] = f
				pr.replicaStats.PagesReplicated++
				created++
			}
			st.done++
			if st.done < expect[p] {
				return
			}
			// Last copy of this page: register the set and write-protect
			// while still holding the chunk lock.
			if pte := sp.PT.Get(p); pte.Present() {
				st.rs.home = pte.Frame.Node
				st.rs.frames[st.rs.home] = pte.Frame
				pr.replicas[p] = st.rs
				pte.Flags &^= vm.PTEWrite
				sp.PT.Install(p, pte)
			}
		},
	})
	t.P.Sleep(sim.Time(copies) * k.P.NTFaultCtl)
	t.tlbShootdown()
	return created, nil
}

// collapseReplicas tears down the replica set of page p, keeping the
// copy on keep (the writer's node) and restoring the VMA's protection.
// The page moves to the kept frame's node, and the tenancy ledger,
// which charged the home frame, moves with it. Called from the
// write-fault path (fixStale).
func (pr *Process) collapseReplicas(p vm.VPN, keep topology.NodeID) {
	rs, ok := pr.replicas[p]
	if !ok {
		return
	}
	k := pr.K
	kept := rs.frames[keep]
	if kept == nil {
		// No local copy: keep the lowest node's frame.
		for _, f := range rs.frames {
			if f != nil {
				kept = f
				break
			}
		}
	}
	for _, f := range rs.frames {
		if f != nil && f != kept {
			k.Phys.Free(f)
		}
	}
	pr.NotePageMove(rs.home, kept.Node)
	delete(pr.replicas, p)
	pte := pr.Space.PT.Get(p)
	pte.Frame = kept
	if v := pr.Space.Find(p.Base()); v != nil {
		pte.Flags = pte.Flags&^(vm.PTERead|vm.PTEWrite) | v.Prot.Flags()
	}
	pr.Space.PT.Install(p, pte)
	pr.replicaStats.Collapses++
}

// protectReplicas clears the write bit of the replicated pages of
// [first, last) again after mprotect rewrote their protection, as Linux
// keeps COW PTEs read-only across mprotect: the next write faults and
// collapses the set (fixStale).
func (pr *Process) protectReplicas(first, last vm.VPN) {
	if len(pr.replicas) == 0 {
		return
	}
	for p := first; p < last; p++ {
		if _, ok := pr.replicas[p]; ok {
			pr.Space.PT.SetFlagsRange(p, p+1, 0, vm.PTEWrite)
		}
	}
}

// dropReplicas forgets the replica sets of [first, last) once the pages
// are unmapped and frees their copies, in address order; the unmap
// itself freed each primary frame.
func (pr *Process) dropReplicas(first, last vm.VPN) {
	for p := first; p < last && len(pr.replicas) > 0; p++ {
		rs, ok := pr.replicas[p]
		if !ok {
			continue
		}
		for n, f := range rs.frames {
			if f != nil && topology.NodeID(n) != rs.home {
				pr.K.Phys.Free(f)
			}
		}
		delete(pr.replicas, p)
	}
}
