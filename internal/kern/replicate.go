package kern

import (
	"fmt"
	"slices"

	"numamig/internal/mem"
	"numamig/internal/migrate"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Read-only page replication is the second future-work item of §6
// ("replicating read-only pages among NUMA nodes so as to achieve local
// access performance from anywhere"). A replicated page keeps its
// mapped frame, the primary, which only the PTE records, plus copies
// that Process.replicas indexes by node; a copy lives on the node it
// serves. Every bulk read (AccessRange, the rect traffic paths,
// Memcpy's source) is served by the reader's copy where there is one.
// A write collapses the page back to a single frame, like a COW break.
// The page movers move the primary and leave the copies, except a copy
// on the primary's new node, which they free.

// ReplicaStats counts replication activity.
type ReplicaStats struct {
	Collapses  uint64 // replicated pages collapsed by writes
	LocalReads uint64 // page-reads served by a copy on the reader's node
}

// Replicas returns the process's replica statistics.
func (pr *Process) Replicas() ReplicaStats { return pr.replicaStats }

// servingNode returns the node that serves a read of page v, whose
// primary frame lives on primary, by a task on reader: the reader's
// own node when v has a copy there, else primary. local reports a read
// served by a copy.
func (pr *Process) servingNode(v vm.VPN, primary, reader topology.NodeID) (node topology.NodeID, local bool) {
	if copies := pr.replicas[v]; copies != nil && copies[reader] != nil {
		return reader, true
	}
	return primary, false
}

// ReplicateRange creates read-only replicas of every resident page of
// [addr, addr+length) on every node. The pages are write-protected; the
// next write collapses the replicas. Returns the number of page-copies
// kept; a zero length creates none, and a negative one is an error.
func (t *Task) ReplicateRange(addr vm.Addr, length int64) (int, error) {
	if err := checkLength("replicate", addr, length); err != nil {
		return 0, err
	}
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
		pr.replicas = map[vm.VPN][]*mem.Frame{}
	}

	// Physical copies run through the shared migration engine: one op
	// per (page, replica node), batched per chunk with one bulk transfer
	// per node pair on the lazy channel. The replica node set comes from
	// the placement layer: every node except the page's home, minus
	// nodes under memory pressure (a copy there would evict something
	// more useful). Copy registration and write protection happen in
	// the OnCopied hook, under the same chunk-lock hold as the copy
	// itself, so a page is never copied-but-writable across a simulated
	// yield; the TLB flush comes last (COW-break ordering).
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	nodes := k.M.NumNodes()
	var ops []migrate.Op
	copies := 0
	sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
		for p := e.Start; p < e.Start+vm.VPN(e.N); p++ {
			if _, done := pr.replicas[p]; done {
				continue
			}
			copies++
			for _, n := range k.Placer.ReplicaNodes(e.Node) {
				ops = append(ops, migrate.Op{VPN: p, Dst: n})
			}
		}
		return true
	})
	created := 0
	k.Migrator(migrate.Patched).Replicate(&migrate.Request{
		P: t.P, Core: t.Core, Space: pr, Ops: ops,
		OnCopied: func(x int, f *mem.Frame) {
			if f == nil {
				return
			}
			op := ops[x]
			if f.Node != op.Dst {
				// Under memory pressure the allocator fell back to
				// another node, where the copy would serve no read.
				k.Phys.Free(f)
				return
			}
			set := pr.replicas[op.VPN]
			if set == nil {
				// The page's first kept copy: write-protect it while
				// still holding the chunk lock.
				set = make([]*mem.Frame, nodes)
				pr.replicas[op.VPN] = set
				pte := sp.PT.Get(op.VPN)
				pte.Flags &^= vm.PTEWrite
				sp.PT.Install(op.VPN, pte)
			}
			set[op.Dst] = f
			created++
		},
	})
	t.P.Sleep(sim.Time(copies) * k.P.NTFaultCtl)
	t.tlbShootdown()
	return created, nil
}

// collapseReplicas ends the replication of page p on a write by a task
// on writer: the writer's copy, or the primary if the writer has none,
// becomes the page's one frame, every other frame is freed, and the
// VMA's protection is restored. The tenancy ledger, which charged the
// primary, follows a kept copy. Called from the write-fault path
// (fixStale).
func (pr *Process) collapseReplicas(p vm.VPN, writer topology.NodeID) {
	k := pr.K
	copies := pr.replicas[p]
	delete(pr.replicas, p)
	pte := pr.Space.PT.Get(p)
	kept := pte.Frame
	if c := copies[writer]; c != nil {
		kept = c
		pr.NotePageMove(p, pte.Frame.Node, c.Node)
		k.Phys.Free(pte.Frame)
	}
	for _, f := range copies {
		if f != nil && f != kept {
			k.Phys.Free(f)
		}
	}
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
// collapses the replicas (fixStale).
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

// dropCopy frees page v's copy on node, which the primary has just
// moved onto, and forgets the set when that was its last copy. The
// page stays write-protected, so a later write takes one minor fault.
func (pr *Process) dropCopy(v vm.VPN, node topology.NodeID) {
	copies := pr.replicas[v]
	if copies == nil || copies[node] == nil {
		return
	}
	pr.K.Phys.Free(copies[node])
	copies[node] = nil
	if !slices.ContainsFunc(copies, func(f *mem.Frame) bool { return f != nil }) {
		delete(pr.replicas, v)
	}
}

// dropReplicas forgets the replicas of [first, last) once the pages
// are unmapped and frees their copies, in address order; the unmap
// itself freed each primary frame.
func (pr *Process) dropReplicas(first, last vm.VPN) {
	for p := first; p < last && len(pr.replicas) > 0; p++ {
		copies, ok := pr.replicas[p]
		if !ok {
			continue
		}
		for _, f := range copies {
			if f != nil {
				pr.K.Phys.Free(f)
			}
		}
		delete(pr.replicas, p)
	}
}
