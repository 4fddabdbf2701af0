// Package mem models the physical memory of the simulated machine:
// per-node frame pools with allocation statistics and optional real byte
// backing. Backed frames carry a 4 KiB data slice so that correctness
// tests can verify data integrity across migrations; large experiments
// run unbacked to keep real memory use low.
//
// The allocator keeps plain per-node state (counters, watermarks, free
// list, frame slab and PFN range) and takes no locks: a Phys belongs to
// one System, whose simulated code runs under the engine's single
// execution token, like the page tables, the tenancy ledger and the
// telemetry bus. Every gauge the placement layer's zonelist walks read
// (free frames, slow-tier residency) is O(1). Frames are carved from
// per-node slabs in blocks rather than allocated individually, so a
// grid run's millions of frame allocations become a few thousand slab
// allocations.
package mem

import (
	"fmt"

	"numamig/internal/model"
	"numamig/internal/topology"
)

// Frame is one physical page frame.
type Frame struct {
	Node topology.NodeID
	PFN  uint64 // unique physical frame number
	Data []byte // nil unless the Phys is backed
}

// NodeStats carries per-node allocator statistics.
type NodeStats struct {
	Total      int64 // frames the node can hold
	Allocated  int64 // currently allocated frames
	Cumulative int64 // total allocations ever
	Freed      int64 // total frees ever: Cumulative - Allocated
	MigratedIn int64 // frames that received migrated data
}

// Free returns the number of available frames.
func (s NodeStats) Free() int64 { return s.Total - s.Allocated }

// Watermarks are one node's pressure thresholds, in frames, mirroring
// the kernel's per-zone min/low/high watermarks:
//
//   - free <= Low  : the node is under pressure; the kswapd-style
//     demotion daemon should run, and allocators prefer other nodes;
//   - free <= Min  : only last-resort allocations land here;
//   - free >  High : reclaim/demotion stops.
//
// The zero value disables watermark behaviour (every threshold at 0).
// Interpretation lives in internal/placement; mem only stores the
// thresholds and answers threshold queries against live accounting.
type Watermarks struct {
	Min, Low, High int64
}

// slabFrames is how many frames one slab block carves at a time.
const slabFrames = 256

// shard is one node's state: everything a single node's allocations
// touch. stats.Freed is not kept; Stats derives it.
type shard struct {
	stats NodeStats
	wm    Watermarks
	tier  int
	free  []*Frame // recycled frames
	slab  []Frame  // current carve block
	used  int      // frames carved from slab
	pfn   uint64   // next local PFN (shard-local, offset by pfnBase)
}

// Phys is the machine's physical memory.
type Phys struct {
	M      *topology.Machine
	Backed bool
	shards []shard

	// slowAlloc is the machine-wide count of frames allocated on
	// slow-tier (tier > 0) nodes, maintained at every alloc/free so
	// SlowTierResident is an O(1) gauge instead of an O(nodes) scan —
	// the tiered telemetry columns sample it every window, which on a
	// 1024-node machine would otherwise rescan all shards per sample.
	slowAlloc int64
}

// pfnBase returns the base of a node's PFN range; per-node ranges keep
// PFN assignment independent across shards while staying globally
// unique.
func pfnBase(node topology.NodeID) uint64 { return (uint64(node) + 1) << 40 }

// freeMark is the PFN bit a frame carries while it sits on its node's
// free list, so Free catches a second free of it. No node's PFN range
// reaches it (pfnBase stays below 1<<51 for topology.MaxNodes nodes),
// and it leaves Frame's size and Node as they are: callers read f.Node
// after freeing f.
const freeMark = 1 << 63

// NewPhys creates physical memory for the machine. If backed, every
// allocated frame carries a real zeroed 4 KiB buffer.
func NewPhys(m *topology.Machine, backed bool) *Phys {
	p := &Phys{M: m, Backed: backed}
	p.shards = make([]shard, m.NumNodes())
	for i, n := range m.Nodes {
		p.shards[i].stats.Total = n.MemBytes / model.PageSize
	}
	return p
}

// SetTier installs a node's memory tier id (0 = DRAM/fast, higher =
// slower). Installed by the placement layer from model.Params.NodeTier.
func (p *Phys) SetTier(node topology.NodeID, tier int) {
	if tier < 0 {
		tier = 0
	}
	s := &p.shards[node]
	// Keep the slow-tier gauge consistent if the node changes sides
	// while holding allocations (in practice tiers are installed before
	// any allocation, but the gauge must not silently drift).
	wasSlow, isSlow := s.tier > 0, tier > 0
	if wasSlow != isSlow {
		if isSlow {
			p.slowAlloc += s.stats.Allocated
		} else {
			p.slowAlloc -= s.stats.Allocated
		}
	}
	s.tier = tier
}

// TierOf returns a node's memory tier id.
func (p *Phys) TierOf(node topology.NodeID) int { return p.shards[node].tier }

// SlowTierResident returns the frames currently allocated on slow-tier
// (tier > 0) nodes — the slow_tier_resident gauge of the tiered
// scenario family. O(1): maintained at every alloc/free.
func (p *Phys) SlowTierResident() int64 { return p.slowAlloc }

// SetWatermarks installs a node's pressure thresholds. Thresholds must
// be ordered 0 <= min <= low <= high <= total.
func (p *Phys) SetWatermarks(node topology.NodeID, w Watermarks) {
	s := &p.shards[node]
	if w.Min < 0 || w.Min > w.Low || w.Low > w.High || w.High > s.stats.Total {
		panic(fmt.Sprintf("mem: invalid watermarks %+v for node %d (total %d)",
			w, node, s.stats.Total))
	}
	s.wm = w
}

// WatermarksOf returns a node's thresholds.
func (p *Phys) WatermarksOf(node topology.NodeID) Watermarks { return p.shards[node].wm }

// FreeFrames returns the node's available frame count: an O(1) gauge,
// so placement's multi-pass zonelist walks never rescan a node they end
// up not allocating from.
func (p *Phys) FreeFrames(node topology.NodeID) int64 {
	return p.shards[node].stats.Free()
}

// UnderPressure reports whether the node's free frames have sunk to or
// below its low watermark (the kswapd wake condition).
func (p *Phys) UnderPressure(node topology.NodeID) bool {
	return p.FreeFrames(node) <= p.shards[node].wm.Low
}

// Reclaimed reports whether the node's free frames have recovered above
// its high watermark (the kswapd stop condition).
func (p *Phys) Reclaimed(node topology.NodeID) bool {
	return p.FreeFrames(node) > p.shards[node].wm.High
}

// Headroom returns how many frames the node can accept while staying
// strictly above its low watermark — the budget the demotion daemons
// use to size a batch toward a tier without pushing it into pressure
// itself. Non-positive when the node is at or below the watermark.
func (p *Phys) Headroom(node topology.NodeID) int64 {
	return p.FreeFrames(node) - p.shards[node].wm.Low - 1
}

// ErrNoMemory is returned when a node's frame pool is exhausted.
type ErrNoMemory struct {
	Node topology.NodeID
}

func (e ErrNoMemory) Error() string {
	return fmt.Sprintf("mem: node %d out of memory", e.Node)
}

// Alloc allocates one frame on the given node.
func (p *Phys) Alloc(node topology.NodeID) (*Frame, error) {
	if err := p.AllocFootprint(node, 1); err != nil {
		return nil, err
	}
	s := &p.shards[node]
	if fl := s.free; len(fl) > 0 {
		f := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		s.free = fl[:len(fl)-1]
		f.PFN &^= freeMark
		if f.Data != nil {
			for i := range f.Data {
				f.Data[i] = 0
			}
		}
		return f, nil
	}
	if s.used == len(s.slab) {
		s.slab = make([]Frame, slabFrames)
		s.used = 0
	}
	f := &s.slab[s.used]
	s.used++
	s.pfn++
	f.Node = node
	f.PFN = pfnBase(node) | s.pfn
	if p.Backed {
		f.Data = make([]byte, model.PageSize)
	}
	return f, nil
}

// Free returns a frame to its node's pool. It panics on a frame that is
// already free.
func (p *Phys) Free(f *Frame) {
	if f == nil {
		panic("mem: free of nil frame")
	}
	if f.PFN&freeMark != 0 {
		panic(fmt.Sprintf("mem: double free of frame %#x on node %d", f.PFN&^freeMark, f.Node))
	}
	s := &p.shards[f.Node]
	if s.stats.Allocated <= 0 {
		panic("mem: free underflow")
	}
	p.ReleaseFootprint(f.Node, 1)
	f.PFN |= freeMark
	s.free = append(s.free, f)
}

// FreeHuge returns a 2 MiB unit to its node's pool: the representative
// frame and the footprint reserved with it (AllocFootprint).
func (p *Phys) FreeHuge(f *Frame) {
	p.Free(f)
	p.ReleaseFootprint(f.Node, model.PTEChunkPages-1)
}

// AllocFootprint reserves n frames' worth of memory on the node without
// materializing frame objects; used for huge-page footprints where one
// representative Frame stands for 512 small frames. Alloc and Free
// account their one frame through AllocFootprint and ReleaseFootprint.
func (p *Phys) AllocFootprint(node topology.NodeID, n int) error {
	s := &p.shards[node]
	if s.stats.Allocated+int64(n) > s.stats.Total {
		return ErrNoMemory{Node: node}
	}
	s.stats.Allocated += int64(n)
	s.stats.Cumulative += int64(n)
	if s.tier > 0 {
		p.slowAlloc += int64(n)
	}
	return nil
}

// ReleaseFootprint returns n frames' worth of accounting reserved with
// AllocFootprint.
func (p *Phys) ReleaseFootprint(node topology.NodeID, n int) {
	s := &p.shards[node]
	if s.stats.Allocated < int64(n) {
		panic("mem: footprint release underflow")
	}
	s.stats.Allocated -= int64(n)
	if s.tier > 0 {
		p.slowAlloc -= int64(n)
	}
}

// NoteMigration records that data was migrated into a frame on dst.
func (p *Phys) NoteMigration(dst topology.NodeID) {
	p.shards[dst].stats.MigratedIn++
}

// Stats returns a copy of the node's statistics.
func (p *Phys) Stats(node topology.NodeID) NodeStats {
	st := p.shards[node].stats
	st.Freed = st.Cumulative - st.Allocated
	return st
}

// TotalAllocated returns the machine-wide allocated frame count.
func (p *Phys) TotalAllocated() int64 {
	var n int64
	for i := range p.shards {
		n += p.shards[i].stats.Allocated
	}
	return n
}
