package vm

import (
	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
)

// This file holds the page table's reads and writes. Every chunk is a
// flat 512-entry PTE array, so a page's value is one index away; the
// range reads (Extents, Cursor) group consecutive equal pages into
// extents as they walk.

// FlagsAllow reports whether flag bits permit an access. A
// next-touch-marked or NUMA-hint-marked page never allows access (the
// kernel cleared its permission bits so the touch faults).
func FlagsAllow(flags uint8, write bool) bool {
	if flags&PTEPresent == 0 || flags&(PTENextTouch|PTENumaHint) != 0 {
		return false
	}
	if write {
		return flags&PTEWrite != 0
	}
	return flags&PTERead != 0
}

// Ext is one maximal same-state extent reported by PageTable.Extents:
// N pages from Start sharing Flags/Age/PromoGen, backed on Node (-1
// when frameless or when the extent is a gap). Gap extents (requested
// via withGaps) have Flags == 0 and cover unmapped pages, including
// whole missing chunks, the pages of 2 MiB units among them (the 4 KiB
// walk reads a unit as unmapped).
type Ext struct {
	Start    VPN
	N        int
	Flags    uint8
	Age      uint8
	PromoGen uint32
	Node     topology.NodeID
}

// Extents walks [start, end) as maximal same-state extents in ascending
// order without changing the table. With withGaps set, unmapped spans
// are reported too (Flags == 0); gaps are maximal within a chunk but not
// coalesced across chunk boundaries. Returning false from fn stops the
// walk. It is a single-span walk of a fresh Cursor.
func (t *PageTable) Extents(start, end VPN, withGaps bool, fn func(e Ext) bool) {
	cur := t.Cursor()
	cur.Extents(start, end, withGaps, fn)
}

// Cursor walks a sequence of ascending, disjoint spans of a page table
// — the strided-rectangle read path, where a 2 MiB chunk holds dozens
// of one-page spans. It resolves each chunk once: one chunk-map probe
// per chunk, not per span. It never changes the table. A cursor caches
// table structure, so it is valid only until the table is next
// mutated.
//
// Besides Extents, a cursor has two batch reads over a span list,
// Classify and CountNodes. They walk a chunk's PTE array by index, with
// no Ext value and no callback: a one-page span costs a few loads
// instead of an extent and a call.
type Cursor struct {
	t        *PageTable
	ci       uint64 // index of the resolved chunk c (valid when resolved)
	c        *Chunk // nil for a missing chunk
	resolved bool
}

// Cursor returns a cursor over the table positioned before any span.
func (t *PageTable) Cursor() Cursor { return Cursor{t: t} }

// Span is the page range [Lo, Hi), one entry of the span lists the
// batch reads walk.
type Span struct{ Lo, Hi VPN }

// chunk resolves chunk ci, probing the chunk map only when it differs
// from the chunk resolved last.
func (cur *Cursor) chunk(ci uint64) *Chunk {
	if !cur.resolved || cur.ci != ci {
		cur.ci, cur.c, cur.resolved = ci, cur.t.chunks[ci], true
	}
	return cur.c
}

// chunkStop returns where the part of [v, end) inside v's chunk ends.
func chunkStop(v, end VPN) VPN {
	return min(end, VPN((ChunkIndex(v)+1)*model.PTEChunkPages))
}

// Extents walks [start, end) exactly like PageTable.Extents. Successive
// calls should pass ascending, disjoint spans to benefit from the
// cursor's cached chunk.
func (cur *Cursor) Extents(start, end VPN, withGaps bool, fn func(e Ext) bool) {
	for v := start; v < end; {
		stop := chunkStop(v, end)
		var more bool
		if c := cur.chunk(ChunkIndex(v)); c == nil {
			more = emitGap(withGaps, v, int(stop-v), fn)
		} else {
			more = walkChunk(&c.ptes, v, stop, withGaps, fn)
		}
		if !more {
			return
		}
		v = stop
	}
}

// emitGap reports an unmapped span to fn when gaps were requested; it
// returns false if fn stopped the walk.
func emitGap(withGaps bool, s VPN, n int, fn func(e Ext) bool) bool {
	return !withGaps || fn(Ext{Start: s, N: n, Node: -1})
}

// FaultClasses holds the pages of a walk that deny an access, filed by
// the fault each takes; every class is in ascending page order.
type FaultClasses struct {
	// Absent pages are not present: unmapped pages, and every page of
	// a missing chunk, a 2 MiB unit's pages included (the 4 KiB walk
	// reads a unit as unmapped).
	Absent []VPN
	// NextTouch and NumaHint pages are present and carry that mark; a
	// page carrying both is a next-touch page.
	NextTouch, NumaHint []VPN
	// Stale pages are present and unmarked but lack the permission bit
	// the access needs.
	Stale []VPN
}

// Reset empties every class, keeping its storage.
func (fc *FaultClasses) Reset() {
	fc.Absent, fc.NextTouch, fc.NumaHint, fc.Stale = fc.Absent[:0], fc.NextTouch[:0], fc.NumaHint[:0], fc.Stale[:0]
}

// class returns the class a page with these flags joins for the access,
// or nil when the flags allow it.
func (fc *FaultClasses) class(flags uint8, write bool) *[]VPN {
	switch {
	case FlagsAllow(flags, write):
		return nil
	case flags&PTEPresent == 0:
		return &fc.Absent
	case flags&PTENextTouch != 0:
		return &fc.NextTouch
	case flags&PTENumaHint != 0:
		return &fc.NumaHint
	}
	return &fc.Stale
}

// appendPages appends the pages of [lo, hi) to dst.
func appendPages(dst []VPN, lo, hi VPN) []VPN {
	for v := lo; v < hi; v++ {
		dst = append(dst, v)
	}
	return dst
}

// Classify appends every page of spans whose PTE denies the access
// (FlagsAllow) to its class in fc. It reads flags only. Spans should
// ascend and be disjoint, as for Extents; each class then ascends too.
func (cur *Cursor) Classify(spans []Span, write bool, fc *FaultClasses) {
	for _, s := range spans {
		for v := s.Lo; v < s.Hi; {
			stop := chunkStop(v, s.Hi)
			if c := cur.chunk(ChunkIndex(v)); c == nil {
				fc.Absent = appendPages(fc.Absent, v, stop)
			} else {
				for p := v; p < stop; p++ {
					if cl := fc.class(c.ptes[uint64(p)%model.PTEChunkPages].Flags, write); cl != nil {
						*cl = append(*cl, p)
					}
				}
			}
			v = stop
		}
	}
}

// CountNodes adds every present page of spans to counts[node], node
// being the node of the page's frame, appends each node whose count was
// zero to order, and returns order and the number of pages counted. It
// dereferences one frame per page. A present page without a frame
// backs no node, so it is not counted; no kernel path maps one. Spans
// should ascend and be disjoint, as for Extents; order is then the
// nodes' first appearance in page order.
func (cur *Cursor) CountNodes(spans []Span, counts []int, order []topology.NodeID) ([]topology.NodeID, int) {
	resident := 0
	for _, s := range spans {
		for v := s.Lo; v < s.Hi; {
			stop := chunkStop(v, s.Hi)
			if c := cur.chunk(ChunkIndex(v)); c != nil {
				for p := v; p < stop; p++ {
					pte := &c.ptes[uint64(p)%model.PTEChunkPages]
					if pte.Flags&PTEPresent == 0 || pte.Frame == nil {
						continue
					}
					node := pte.Frame.Node
					if counts[node] == 0 {
						order = append(order, node)
					}
					counts[node]++
					resident++
				}
			}
			v = stop
		}
	}
	return order, resident
}

// frameNode returns the node backing a PTE, or -1 when it has no frame.
func frameNode(pte *PTE) topology.NodeID {
	if pte.Frame == nil {
		return -1
	}
	return pte.Frame.Node
}

// walkChunk walks [v, stop) inside one chunk's PTE array d, grouping
// consecutive pages with equal flags, age, promotion generation and
// backing node into one extent.
func walkChunk(d *[model.PTEChunkPages]PTE, v, stop VPN, withGaps bool, fn func(e Ext) bool) bool {
	for v < stop {
		pte := &d[uint64(v)%model.PTEChunkPages]
		if pte.Flags&PTEPresent == 0 {
			gs := v
			for v < stop && d[uint64(v)%model.PTEChunkPages].Flags&PTEPresent == 0 {
				v++
			}
			if !emitGap(withGaps, gs, int(v-gs), fn) {
				return false
			}
			continue
		}
		rs := v
		flags, age, gen, node := pte.Flags, pte.Age, pte.PromoGen, frameNode(pte)
		v++
		for v < stop {
			q := &d[uint64(v)%model.PTEChunkPages]
			if q.Flags != flags || q.Age != age || q.PromoGen != gen || frameNode(q) != node {
				break
			}
			v++
		}
		if !fn(Ext{Start: rs, N: int(v - rs), Flags: flags, Age: age, PromoGen: gen, Node: node}) {
			return false
		}
	}
	return true
}

// Get returns the value of the PTE covering v (zero PTE when unmapped,
// a 2 MiB unit's pages included).
//
// Get and Install stay out of line. Inlined, they widen the frames of
// the migration engine's loops, which sit under a migrating task's
// deepest stack (the copy transfer parked in the engine's dispatch);
// that stack then outgrows its first size, and every short-lived task
// that migrates pays a stack copy: about 15 % more host time on the
// churn-256node benchmark workload.
//
//go:noinline
func (t *PageTable) Get(v VPN) PTE {
	c := t.chunks[ChunkIndex(v)]
	if c == nil {
		return PTE{}
	}
	return c.ptes[uint64(v)%model.PTEChunkPages]
}

// Install stores value e for v, creating the covering chunk; a zero e
// unmaps the page. It is the table's one per-page write. It panics
// where a 2 MiB unit maps v (newChunk). It stays out of line like Get.
//
//go:noinline
func (t *PageTable) Install(v VPN, e PTE) {
	ci := ChunkIndex(v)
	c := t.chunks[ci]
	if c == nil {
		c = t.newChunk(ci)
	}
	c.ptes[uint64(v)%model.PTEChunkPages] = e
}

// Touch performs the hardware fast path for an access to v: if the
// mapping's flag bits allow it, the accessed (and for writes dirty) bit
// is set and Touch reports true; otherwise the caller must take the
// fault path.
func (t *PageTable) Touch(v VPN, write bool) bool {
	c := t.chunks[ChunkIndex(v)]
	if c == nil {
		return false
	}
	pte := &c.ptes[uint64(v)%model.PTEChunkPages]
	if !FlagsAllow(pte.Flags, write) {
		return false
	}
	pte.Flags |= PTEAccessed
	if write {
		pte.Flags |= PTEDirty
	}
	return true
}

// UnmapRange clears every 4 KiB mapping in [start, end), invoking free
// on each backing frame, and returns the number of present pages
// dropped. Fully-cleared chunks are detached and recycled. 2 MiB units
// are left to the caller (Space.Unmap frees them whole).
func (t *PageTable) UnmapRange(start, end VPN, free func(*mem.Frame)) int {
	dropped := 0
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		for off := lo; off < hi; off++ {
			if pte := &c.ptes[off]; pte.Flags&PTEPresent != 0 {
				dropped++
				if free != nil && pte.Frame != nil {
					free(pte.Frame)
				}
			}
		}
		if lo == 0 && hi == model.PTEChunkPages {
			t.releaseChunk(ChunkIndex(base))
			return
		}
		clear(c.ptes[lo:hi])
	})
	return dropped
}

// forRangeChunks invokes fn once per existing chunk overlapped by
// [start, end), passing the chunk's first page and the chunk-relative
// offset window [lo, hi).
func (t *PageTable) forRangeChunks(start, end VPN, fn func(c *Chunk, base VPN, lo, hi uint16)) {
	for v := start; v < end; {
		ci := ChunkIndex(v)
		stop := chunkStop(v, end)
		if c := t.chunks[ci]; c != nil {
			base := VPN(ci * model.PTEChunkPages)
			fn(c, base, uint16(v-base), uint16(stop-base))
		}
		v = stop
	}
}
