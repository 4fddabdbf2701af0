package kern

import (
	"fmt"

	"numamig/internal/model"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// AccessKind describes the memory access pattern of a bulk access, which
// determines how strongly remote placement hurts.
type AccessKind int

// Access kinds.
const (
	// Stream is a sequential, prefetch-friendly access; hardware
	// prefetching hides most of the remote latency, so only a small
	// penalty applies (the reason BLAS1 never benefits from migration,
	// §4.5).
	Stream AccessKind = iota
	// Blocked is a compute-kernel access with reuse and strides; the
	// effective remote cost scales with the NUMA factor (1.2-1.4).
	Blocked
)

// AccessRange models the application touching every byte of
// [addr, addr+length) with the given pattern: faults are serviced first
// (demand paging, next-touch migration, signal handling), then the
// resident pages generate memory traffic from the nodes serving them
// through the interconnect, sharing bandwidth with all concurrent
// activity. A read of a replicated page is served by the reader's copy.
// A zero length touches nothing; a negative one is an error.
func (t *Task) AccessRange(addr vm.Addr, length int64, kind AccessKind, write bool) error {
	if err := checkLength("AccessRange", addr, length); err != nil || length == 0 {
		return err
	}
	if _, err := t.FaultIn(addr, length, write); err != nil {
		return err
	}
	pt := t.Proc.Space.PT
	end := addr + vm.Addr(length)
	first, last := vm.PageOf(addr), vm.PageOf(end-1)+1
	mark := uint8(vm.PTEAccessed)
	if write {
		mark |= vm.PTEDirty
	}
	pt.SetFlagsRange(first, last, mark, 0)
	t.scratch.spans = append(t.scratch.spans[:0], vm.Span{Lo: first, Hi: last})
	counts, order, _ := t.census(t.scratch.spans, !write)
	// Each page is 4096 bytes on the node serving it, less the bytes of
	// the first and last page that lie outside the range. The totals are
	// whole numbers, so every node's float64 is exact.
	clip := func(p vm.VPN) topology.NodeID {
		pte := pt.Get(p)
		if !pte.Present() || pte.Frame == nil {
			return -1
		}
		if write {
			return pte.Frame.Node
		}
		node, _ := t.Proc.servingNode(p, pte.Frame.Node, t.Node())
		return node
	}
	headNode, head := clip(first), int64(addr-first.Base())
	tailNode, tail := clip(last-1), int64(last.Base()-end)
	for _, node := range order {
		bytes := int64(counts[node]) * model.PageSize
		if node == headNode {
			bytes -= head
		}
		if node == tailNode {
			bytes -= tail
		}
		t.chargeNodeTraffic(node, float64(bytes), kind)
	}
	return nil
}

// census counts the resident pages of spans per serving node into task
// scratch and returns the counts, the nodes in first-appearance page
// order and the number of pages counted. Every per-node page count of
// the bulk access paths runs here. A write, or a read while the process
// holds no replicas, counts each page on its frame's node in one
// vm.Cursor.CountNodes call; any other read takes the per-page replica
// walk.
func (t *Task) census(spans []vm.Span, read bool) (counts []int, order []topology.NodeID, resident int) {
	counts = t.scratch.counts(t.Proc.K.M.NumNodes())
	order = t.scratch.nodeOrder[:0]
	if read && len(t.Proc.replicas) > 0 {
		order, resident = t.replicaCensus(spans, counts, order)
	} else {
		cur := t.Proc.Space.PT.Cursor()
		order, resident = cur.CountNodes(spans, counts, order)
	}
	t.scratch.nodeOrder = order
	return counts, order, resident
}

// replicaCensus is census's read walk over a process with replicas:
// each resident page counts on the node serving it to t, and a page a
// replica serves on t's node counts as a local replica read. It is kept
// out of census so the walk's closure does not burden the common path.
func (t *Task) replicaCensus(spans []vm.Span, counts []int, order []topology.NodeID) ([]topology.NodeID, int) {
	pr := t.Proc
	reader := t.Node()
	resident := 0
	cur := pr.Space.PT.Cursor()
	for _, s := range spans {
		cur.Extents(s.Lo, s.Hi, false, func(e vm.Ext) bool {
			for p := e.Start; p < e.Start+vm.VPN(e.N); p++ {
				node, local := pr.servingNode(p, e.Node, reader)
				if local {
					pr.replicaStats.LocalReads++
				}
				if counts[node] == 0 {
					order = append(order, node)
				}
				counts[node]++
			}
			resident += e.N
			return true
		})
	}
	return order, resident
}

// chargeNodeTraffic charges bytes of application traffic served from
// node: the access-kind remote penalty, the Remote/LocalBytes
// accounting, the tier-class latency multiplier, and the fluid
// transfer along the user path. The bulk access paths (AccessRange and
// TrafficRectVolume) make one call per node of their census, in the
// census's node order, so the cost model cannot drift between them.
//
// Data resident on a slow tier (CXL) pays its tier class's latency
// multiplier on top of the NUMA penalty, wherever the accessing core
// sits — the device latency does not care which socket asked.
func (t *Task) chargeNodeTraffic(node topology.NodeID, bytes float64, kind AccessKind) {
	k := t.Proc.K
	local := t.Node()
	penalty := 1.0
	if node != local {
		switch kind {
		case Stream:
			penalty = k.P.StreamPenalty
		case Blocked:
			penalty = k.M.NUMAFactor(local, node) * k.P.BlockedBoost
		}
		k.Stats.RemoteBytes += bytes
	} else {
		k.Stats.LocalBytes += bytes
	}
	penalty *= k.tierLat[node]
	k.Net.Transfer(t.P, bytes*penalty, k.userPath(t.Core, node, node)...)
}

// Memcpy models a user-space optimized copy of length bytes from src to
// dst (both resident after fault-in), the baseline curve of Figure 4.
// A negative length is an error.
func (t *Task) Memcpy(dst, src vm.Addr, length int64) error {
	if err := checkLength("Memcpy", src, length); err != nil {
		return err
	}
	if _, err := t.FaultIn(src, length, false); err != nil {
		return err
	}
	if _, err := t.FaultIn(dst, length, true); err != nil {
		return err
	}
	k := t.Proc.K
	srcNode := t.dominantNode(src, length, true)
	dstNode := t.dominantNode(dst, length, false)
	t.P.Sleep(k.P.SyscallBase) // call overhead / loop warm-up
	k.Net.Transfer(t.P, float64(length), k.userPath(t.Core, srcNode, dstNode)...)
	if k.Phys.Backed {
		t.copyBytes(dst, src, length)
	}
	return nil
}

// dominantNode returns the node serving the most pages of the range to
// t, the lowest such node on a tie.
func (t *Task) dominantNode(addr vm.Addr, length int64, read bool) topology.NodeID {
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	t.scratch.spans = append(t.scratch.spans[:0], vm.Span{Lo: first, Hi: last})
	counts, _, _ := t.census(t.scratch.spans, read)
	best := 0
	for n, c := range counts {
		if c > counts[best] {
			best = n
		}
	}
	return topology.NodeID(best)
}

// copyBytes copies real backing bytes between two resident ranges.
func (t *Task) copyBytes(dst, src vm.Addr, length int64) {
	for off := int64(0); off < length; {
		sPte := t.Proc.Space.PT.Get(vm.PageOf(src + vm.Addr(off)))
		dPte := t.Proc.Space.PT.Get(vm.PageOf(dst + vm.Addr(off)))
		sOff := int64((src + vm.Addr(off)) % model.PageSize)
		dOff := int64((dst + vm.Addr(off)) % model.PageSize)
		n := model.PageSize - sOff
		if m := model.PageSize - dOff; m < n {
			n = m
		}
		if rem := length - off; rem < n {
			n = rem
		}
		copy(dPte.Frame.Data[dOff:dOff+n], sPte.Frame.Data[sOff:sOff+n])
		off += n
	}
}

// WriteData stores bytes at addr in the (backed) simulated memory,
// faulting pages in as needed. Intended for correctness tests.
func (t *Task) WriteData(addr vm.Addr, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if _, err := t.FaultIn(addr, int64(len(data)), true); err != nil {
		return err
	}
	sp := t.Proc.Space
	for off := 0; off < len(data); {
		p := vm.PageOf(addr + vm.Addr(off))
		pte := sp.PT.Get(p)
		pgOff := int((addr + vm.Addr(off)) % model.PageSize)
		n := model.PageSize - pgOff
		if rem := len(data) - off; rem < n {
			n = rem
		}
		if pte.Frame.Data == nil {
			return fmt.Errorf("kern: WriteData on unbacked memory")
		}
		copy(pte.Frame.Data[pgOff:pgOff+n], data[off:off+n])
		pte.Flags |= vm.PTEDirty
		sp.PT.Install(p, pte)
		off += n
	}
	return nil
}

// ReadData loads length bytes from addr in the (backed) simulated memory.
func (t *Task) ReadData(addr vm.Addr, length int) ([]byte, error) {
	if err := checkLength("ReadData", addr, int64(length)); err != nil || length == 0 {
		return nil, err
	}
	if _, err := t.FaultIn(addr, int64(length), false); err != nil {
		return nil, err
	}
	sp := t.Proc.Space
	out := make([]byte, length)
	for off := 0; off < length; {
		pte := sp.PT.Get(vm.PageOf(addr + vm.Addr(off)))
		pgOff := int((addr + vm.Addr(off)) % model.PageSize)
		n := model.PageSize - pgOff
		if rem := length - off; rem < n {
			n = rem
		}
		if pte.Frame.Data == nil {
			return nil, fmt.Errorf("kern: ReadData on unbacked memory")
		}
		copy(out[off:off+n], pte.Frame.Data[pgOff:pgOff+n])
		off += n
	}
	return out, nil
}
