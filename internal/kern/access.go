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
// resident pages generate memory traffic from their home nodes through
// the interconnect, sharing bandwidth with all concurrent activity.
func (t *Task) AccessRange(addr vm.Addr, length int64, kind AccessKind, write bool) error {
	if length <= 0 {
		return nil
	}
	if _, err := t.FaultIn(addr, length, write); err != nil {
		return err
	}
	k := t.Proc.K
	sp := t.Proc.Space

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
	mark := uint8(vm.PTEAccessed)
	if write {
		mark |= vm.PTEDirty
	}
	// Mark run-at-a-time, then sum the traffic per home node from the
	// extent walk. Per-page byte overlaps are whole numbers, so summing
	// them per extent yields the identical float64 total, and the
	// first-appearance node order of an ascending walk is unchanged.
	sp.PT.SetFlagsRange(first, last, mark, 0)
	sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
		lo, hi := e.Start.Base(), (e.Start + vm.VPN(e.N)).Base()
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if bytesByNode[e.Node] == 0 {
			order = append(order, e.Node)
		}
		bytesByNode[e.Node] += float64(hi - lo)
		return true
	})
	t.scratch.nodeBytes, t.scratch.nodeOrder = bytesByNode, order
	for _, node := range order {
		t.chargeNodeTraffic(node, bytesByNode[node], kind)
	}
	return nil
}

// chargeNodeTraffic charges bytes of application traffic served from
// node: the access-kind remote penalty, the Remote/LocalBytes
// accounting, the tier-class latency multiplier, and the fluid
// transfer along the user path. Every bulk access path (AccessRange,
// TrafficRectVolume, ReadReplicated) charges one call per node-group
// of its extent walk, so the cost model cannot drift between them.
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
func (t *Task) Memcpy(dst, src vm.Addr, length int64) error {
	if _, err := t.FaultIn(src, length, false); err != nil {
		return err
	}
	if _, err := t.FaultIn(dst, length, true); err != nil {
		return err
	}
	k := t.Proc.K
	srcNode := t.dominantNode(src, length)
	dstNode := t.dominantNode(dst, length)
	t.P.Sleep(k.P.SyscallBase) // call overhead / loop warm-up
	k.Net.Transfer(t.P, float64(length), k.userPath(t.Core, srcNode, dstNode)...)
	if k.Phys.Backed {
		t.copyBytes(dst, src, length)
	}
	return nil
}

// dominantNode returns the node holding the most bytes of the range.
func (t *Task) dominantNode(addr vm.Addr, length int64) topology.NodeID {
	nn := t.Proc.K.M.NumNodes()
	counts := t.scratch.counts(nn)
	sp := t.Proc.Space
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
		counts[e.Node] += e.N
		return true
	})
	best, bestN := t.Node(), -1
	for n := 0; n < nn; n++ {
		if c := counts[n]; c > bestN {
			best, bestN = topology.NodeID(n), c
		}
	}
	return best
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
	if length == 0 {
		return nil, nil
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
