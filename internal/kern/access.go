package kern

import (
	"fmt"
	"sort"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
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

// FaultIn resolves every faulting page in [addr, addr+length): demand
// allocation for absent pages, batched kernel next-touch migration for
// marked pages, minor fixups for stale protections, and SIGSEGV delivery
// for protection violations (which re-runs the scan afterwards, since
// the user handler typically repairs whole regions). It returns the
// number of pages that required service.
func (t *Task) FaultIn(addr vm.Addr, length int64, write bool) (int, error) {
	k := t.Proc.K
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	spans := rectSpans{lo: first, hi: last}
	serviced := 0
	for round := 0; round < 16; round++ {
		n, segvAt, segv := t.faultRound(spans, write)
		serviced += n
		if !segv {
			return serviced, nil
		}
		k.Stats.Faults++
		if k.bus.Active(telemetry.TopicPageFault) {
			k.bus.Publish(telemetry.Event{
				Topic: telemetry.TopicPageFault,
				Node:  t.Node(), Dst: telemetry.NoNode,
				Task: t.P.ID(), Pages: 1,
			})
		}
		t.P.Sleep(k.P.FaultBase)
		if err := t.raiseSegv(segvAt, write); err != nil {
			return serviced, err
		}
		serviced++
	}
	return serviced, fmt.Errorf("kern: FaultIn at %#x did not settle", addr)
}

// faultRound is one classify-and-service pass of the bulk fault paths
// over ascending page spans, under mmap_sem shared. Chunk by chunk it
// classifies the spans' pages extent-at-a-time (absent, stale,
// next-touch, NUMA-hint) and services them with aggregate costs. It
// stops at the first page outside a VMA or without the access
// permission, leaving that chunk unserviced, and reports the page's
// address for the caller's SIGSEGV fallback. It returns the number of
// pages serviced.
func (t *Task) faultRound(spans rectSpans, write bool) (serviced int, segvAt vm.Addr, segv bool) {
	sp := t.Proc.Space
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	lo, hi, ok := spans.next()
	if !ok {
		return 0, 0, false
	}
	// Walk the VMA list once per round instead of binary-searching it
	// for every 4 KiB page: vmas is address-sorted, and pages are
	// visited in ascending order, so a single cursor (vi) suffices.
	// The cursor starts at the first covering VMA by binary search —
	// an address space with thousands of live mappings must not pay
	// a linear scan per fault.
	vmas := sp.VMAs()
	vi := sort.Search(len(vmas), func(i int) bool { return vmas[i].End > lo.Base() })
	for ok {
		ci := vm.ChunkIndex(lo)
		cend := vm.VPN((ci + 1) * model.PTEChunkPages)
		// Classify the pages of this chunk. The page-table cursor is
		// fresh per chunk: servicing the previous chunk slept, and other
		// tasks may have changed the table meanwhile.
		ntPages := t.scratch.nt[:0]
		numaPages := t.scratch.numa[:0]
		absent := t.scratch.absent[:0]
		stale := t.scratch.stale[:0]
		cur := sp.PT.Cursor()
		for ok && lo < cend {
			end := min(hi, cend)
			for p := lo; p < end; {
				for vi < len(vmas) && vmas[vi].End <= p.Base() {
					vi++
				}
				if vi >= len(vmas) || vmas[vi].Start > p.Base() || !vmas[vi].Prot.Allows(write) {
					segvAt, segv = p.Base(), true
					break
				}
				// Classify this VMA's span extent-at-a-time: unmapped
				// spans (including whole missing chunks and huge chunks,
				// which the 4 KiB walk treats as unmapped) arrive as gaps,
				// everything else as maximal same-flag runs — no per-page
				// work.
				vEnd := min(vm.PageOf(vmas[vi].End-1)+1, end)
				cur.Extents(p, vEnd, true, func(e vm.Ext) bool {
					pEnd := e.Start + vm.VPN(e.N)
					switch {
					case vm.FlagsAllow(e.Flags, write):
					case e.Flags&vm.PTEPresent == 0:
						for q := e.Start; q < pEnd; q++ {
							absent = append(absent, q)
						}
					case e.Flags&vm.PTENextTouch != 0:
						for q := e.Start; q < pEnd; q++ {
							ntPages = append(ntPages, q)
						}
					case e.Flags&vm.PTENumaHint != 0:
						for q := e.Start; q < pEnd; q++ {
							numaPages = append(numaPages, q)
						}
					default:
						for q := e.Start; q < pEnd; q++ {
							stale = append(stale, q)
						}
					}
					return true
				})
				p = vEnd
			}
			if segv {
				break
			}
			if end < hi {
				lo = end
			} else {
				lo, hi, ok = spans.next()
			}
		}
		t.scratch.nt, t.scratch.numa = ntPages, numaPages
		t.scratch.absent, t.scratch.stale = absent, stale
		if segv {
			return serviced, segvAt, true
		}
		if len(absent)+len(stale) > 0 {
			serviced += len(absent) + len(stale)
			t.serviceChunk(ci, absent, stale)
		}
		if len(ntPages) > 0 {
			serviced += len(ntPages)
			t.ntServiceFaults(ntPages)
		}
		if len(numaPages) > 0 {
			serviced += len(numaPages)
			t.numaServiceFaults(numaPages)
		}
	}
	return serviced, 0, false
}

// serviceChunk handles the classified stale and absent pages of one PTE
// chunk with aggregate costs equivalent to per-page fault handling.
// Next-touch pages go through ntMigratePages (the shared migration
// engine) instead. Caller holds mmap_sem shared.
func (t *Task) serviceChunk(ci uint64, absent, stale []vm.VPN) {
	k := t.Proc.K
	sp := t.Proc.Space
	cl := t.Proc.chunkLock(ci)
	cl.Acquire(t.P)
	defer cl.Release()

	// Pages arrive in ascending order, so consecutive ones usually share
	// a VMA: cache the last hit instead of binary-searching per page.
	var cached *vm.VMA
	vmaOf := func(p vm.VPN) *vm.VMA {
		if cached == nil || !cached.Contains(p.Base()) {
			cached = sp.Find(p.Base())
		}
		return cached
	}
	// Minor fixups: consecutive stale pages of one VMA restore their
	// protection as a single range operation on the extent store.
	if len(stale) > 0 {
		k.Stats.MinorFaults += uint64(len(stale))
		t.P.Sleep(sim.Time(len(stale)) * k.P.FaultBase)
		for i := 0; i < len(stale); {
			v := vmaOf(stale[i])
			j := i + 1
			for j < len(stale) && stale[j] == stale[j-1]+1 && v.Contains(stale[j].Base()) {
				j++
			}
			sp.PT.SetFlagsRange(stale[i], stale[j-1]+1, v.Prot.Flags(), vm.PTERead|vm.PTEWrite)
			i = j
		}
	}
	// Demand allocations.
	if len(absent) > 0 {
		k.Stats.Faults += uint64(len(absent))
		if k.bus.Active(telemetry.TopicPageFault) {
			k.bus.Publish(telemetry.Event{
				Topic: telemetry.TopicPageFault,
				Node:  t.Node(), Dst: telemetry.NoNode,
				Task: t.P.ID(), Pages: len(absent),
			})
		}
		k.Stats.DemandAllocs += uint64(len(absent))
		t.P.Sleep(sim.Time(len(absent)) * (k.P.FaultBase + k.P.DemandZero))
		for _, p := range absent {
			v := vmaOf(p)
			f := t.allocFrame(t.capTarget(t.placeTarget(v, p)))
			sp.PT.Install(p, vm.PTE{Frame: f, Flags: vm.PTEPresent | vm.PTEAccessed | v.Prot.Flags()})
			t.chargeTenant(f)
		}
	}
}

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
	counts := t.scratch.nodeCount
	if cap(counts) < nn {
		counts = make([]int, nn)
	}
	counts = counts[:nn]
	for i := range counts {
		counts[i] = 0
	}
	sp := t.Proc.Space
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	sp.PT.Extents(first, last, false, func(e vm.Ext) bool {
		counts[e.Node] += e.N
		return true
	})
	t.scratch.nodeCount = counts
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
