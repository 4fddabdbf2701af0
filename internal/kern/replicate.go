package kern

import (
	"fmt"

	"numamig/internal/mem"
	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Read-only page replication is the second future-work item of §6
// ("replicating read-only pages among NUMA nodes so as to achieve local
// access performance from anywhere"). Replicated pages keep their home
// frame plus one copy per other node; reads are served from the reader's
// local copy. A write collapses the replica set back to a single frame
// (the writer's node), like a COW break.

// ReplicaStats counts replication activity.
type ReplicaStats struct {
	PagesReplicated uint64 // page-copies created
	Collapses       uint64 // replica sets torn down by writes
	LocalReads      uint64 // page-reads served by a replica
}

// replicaSet tracks the per-node copies of one page.
type replicaSet struct {
	frames []*mem.Frame    // index = node id; nil where absent
	home   topology.NodeID // slot of the mapped (primary) frame; the others are copies
}

// Replicas returns the process's replica statistics.
func (pr *Process) Replicas() ReplicaStats { return pr.replicaStats }

// replicaFor returns the frame to read page v from, preferring a copy
// local to node.
func (pr *Process) replicaFor(v vm.VPN, node topology.NodeID) *mem.Frame {
	rs, ok := pr.replicas[v]
	if !ok {
		return nil
	}
	if f := rs.frames[node]; f != nil {
		return f
	}
	return nil
}

// ReplicateRange creates read-only replicas of every resident page of
// [addr, addr+length) on every node. The pages are write-protected; the
// next write collapses the replicas. Returns the number of page-copies
// created.
func (t *Task) ReplicateRange(addr vm.Addr, length int64) (int, error) {
	k := t.Proc.K
	pr := t.Proc
	sp := pr.Space
	if sp.Find(addr) == nil {
		return 0, fmt.Errorf("kern: replicate of unmapped address %#x", addr)
	}
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase + k.P.MadviseBase)
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

// CollapseReplicas tears down the replica set of the page containing
// addr, keeping the copy on keep (typically the writer's node) and
// restoring write permission. Called from the write-fault path.
func (pr *Process) collapseReplicas(t *Task, p vm.VPN, keep topology.NodeID) {
	rs, ok := pr.replicas[p]
	if !ok {
		return
	}
	k := pr.K
	kept := rs.frames[keep]
	if kept == nil {
		// No local copy: keep the home frame.
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
	delete(pr.replicas, p)
	pte := pr.Space.PT.Get(p)
	pte.Frame = kept
	if v := pr.Space.Find(p.Base()); v != nil {
		pte.Flags = pte.Flags&^(vm.PTERead|vm.PTEWrite) | v.Prot.Flags()
	}
	pr.Space.PT.Install(p, pte)
	pr.replicaStats.Collapses++
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

// ReadReplicated performs a read of [addr, addr+length) that serves
// replicated pages from the local copy (no remote traffic for them).
// Non-replicated pages fall back to their home node as in AccessRange.
func (t *Task) ReadReplicated(addr vm.Addr, length int64, kind AccessKind) error {
	if length <= 0 {
		return nil
	}
	k := t.Proc.K
	pr := t.Proc
	sp := pr.Space
	if _, err := t.FaultIn(addr, length, false); err != nil {
		return err
	}
	local := t.Node()
	nn := k.M.NumNodes()
	bytesByNode := t.scratch.nodeBytes
	if cap(bytesByNode) < nn {
		bytesByNode = make([]float64, nn)
	}
	bytesByNode = bytesByNode[:nn]
	for i := range bytesByNode {
		bytesByNode[i] = 0
	}
	order := t.scratch.nodeOrder[:0]
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	end := addr + vm.Addr(length)
	add := func(node topology.NodeID, lo, hi vm.Addr) {
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if bytesByNode[node] == 0 {
			order = append(order, node)
		}
		bytesByNode[node] += float64(hi - lo)
	}
	if len(pr.replicas) == 0 {
		// No replica sets anywhere in the process: the read is a plain
		// home-node access, accumulated extent-run-at-a-time like
		// AccessRange (no per-page map probe).
		sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
			add(e.Node, e.Start.Base(), (e.Start + vm.VPN(e.N)).Base())
			return true
		})
	} else {
		sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
			for p := e.Start; p < e.Start+vm.VPN(e.N); p++ {
				node := e.Node
				if f := pr.replicaFor(p, local); f != nil {
					node = local
					pr.replicaStats.LocalReads++
				}
				add(node, p.Base(), p.Base()+model.PageSize)
			}
			return true
		})
	}
	t.scratch.nodeBytes, t.scratch.nodeOrder = bytesByNode, order
	for _, node := range order {
		t.chargeNodeTraffic(node, bytesByNode[node], kind)
	}
	return nil
}

// WriteReplicated performs a write to one page, collapsing its replica
// set first (the COW-style break).
func (t *Task) WriteReplicated(addr vm.Addr) error {
	pr := t.Proc
	p := vm.PageOf(addr)
	if _, ok := pr.replicas[p]; ok {
		k := pr.K
		k.Stats.Faults++
		if k.bus.Active(telemetry.TopicPageFault) {
			k.bus.Publish(telemetry.Event{
				Topic: telemetry.TopicPageFault,
				Node:  t.Node(), Dst: telemetry.NoNode,
				Task: t.P.ID(), Pages: 1,
			})
		}
		t.P.Sleep(k.P.FaultBase + k.P.NTFaultCtl)
		cl := pr.chunkLock(vm.ChunkIndex(p))
		cl.Acquire(t.P)
		pr.collapseReplicas(t, p, t.Node())
		cl.Release()
		t.tlbShootdown()
	}
	return t.Touch(addr, true)
}
