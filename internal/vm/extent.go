package vm

import (
	"sort"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
)

// This file is the storage layer of the page table. A compact chunk
// stores its mapping as a sorted set of maximal runs of pages with
// identical (flags, age, promogen, node) — the maple-tree idea: a
// multi-TB sparse mapping costs a few runs per touched chunk instead of
// 512 PTEs. Range writes (SetFlagsRange, ArmRange, Touch, UnmapRange)
// split runs at their edges and re-merge neighbours that become
// identical again.
//
// Callers only ever see values (Get, Install, Extents, Cursor), so the
// encoding is the chunk's own business. A chunk flattens to the
// [512]PTE array when its data stops compressing: more than maxRuns
// runs (interleaved memory fragments a chunk into ~512 one-page runs),
// or an Install that rewrites one page inside a multi-page run — the
// page-by-page rewrite of migration and aging, which would otherwise
// split a run and allocate a frame slice per page. A flat chunk never
// converts back; unmapping all of it releases it.

// maxRuns is the run count past which a compact chunk flattens.
const maxRuns = 64

// extRun is one maximal same-state extent inside a chunk: n pages
// starting at page offset off, all sharing flags/age/promoGen and
// backed by frames on one node (node == -1 and frames == nil for
// frameless present runs). frames[i] belongs to page off+i.
type extRun struct {
	off      uint16
	n        uint16
	flags    uint8
	age      uint8
	promoGen uint32
	node     int32
	frames   []*mem.Frame
}

func (r *extRun) end() uint16 { return r.off + r.n }

// pte returns the value of page i (0 <= i < n) of the run.
func (r *extRun) pte(i int) PTE {
	e := PTE{Flags: r.flags, Age: r.age, PromoGen: r.promoGen}
	if r.frames != nil {
		e.Frame = r.frames[i]
	}
	return e
}

// attrEqual reports whether two runs could belong to one extent.
func (r *extRun) attrEqual(s *extRun) bool {
	return r.flags == s.flags && r.age == s.age && r.promoGen == s.promoGen &&
		r.node == s.node && (r.frames == nil) == (s.frames == nil)
}

// pteAttrEqual reports whether value e matches the run's shared state.
func (r *extRun) pteAttrEqual(e PTE) bool {
	if r.flags != e.Flags || r.age != e.Age || r.promoGen != e.PromoGen {
		return false
	}
	if e.Frame == nil {
		return r.frames == nil
	}
	return r.frames != nil && r.node == int32(e.Frame.Node)
}

// runForPTE builds a single-page run holding value e at offset off.
func runForPTE(off uint16, e PTE) extRun {
	r := extRun{off: off, n: 1, flags: e.Flags, age: e.Age, promoGen: e.PromoGen, node: -1}
	if e.Frame != nil {
		r.node = int32(e.Frame.Node)
		r.frames = []*mem.Frame{e.Frame}
	}
	return r
}

// store overwrites a one-page run with value e, reusing its frame slot.
func (r *extRun) store(e PTE) {
	r.flags, r.age, r.promoGen, r.node = e.Flags, e.Age, e.PromoGen, -1
	if e.Frame == nil {
		r.frames = nil
		return
	}
	r.node = int32(e.Frame.Node)
	if r.frames == nil {
		r.frames = make([]*mem.Frame, 1)
	}
	r.frames[0] = e.Frame
}

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

// findRun returns the index of the first run whose end is past off —
// the run containing off if one does, else the insertion point.
func (c *Chunk) findRun(off uint16) int {
	return sort.Search(len(c.runs), func(i int) bool { return c.runs[i].end() > off })
}

// splitAt ensures no run straddles the boundary off and returns the
// index of the first run whose start is >= off. Frame slices of the
// left half are capacity-clamped so later appends cannot clobber the
// right half's shared backing array.
func (c *Chunk) splitAt(off uint16) int {
	i := c.findRun(off)
	if i == len(c.runs) || c.runs[i].off >= off {
		return i
	}
	r := c.runs[i]
	k := off - r.off
	left, right := r, r
	left.n = k
	right.off, right.n = off, r.n-k
	if r.frames != nil {
		left.frames = r.frames[:k:k]
		right.frames = r.frames[k:]
	}
	c.runs = append(c.runs, extRun{})
	copy(c.runs[i+2:], c.runs[i+1:])
	c.runs[i] = left
	c.runs[i+1] = right
	return i + 1
}

// mergeWindow re-merges adjacent attr-equal runs around the index
// window [i, j) that a mutation just touched.
func (c *Chunk) mergeWindow(i, j int) {
	k := i - 1
	if k < 0 {
		k = 0
	}
	for k < len(c.runs)-1 && k <= j {
		a, b := &c.runs[k], &c.runs[k+1]
		if a.end() == b.off && a.attrEqual(b) {
			if a.frames != nil {
				a.frames = append(a.frames, b.frames...)
			}
			a.n += b.n
			c.runs = append(c.runs[:k+1], c.runs[k+2:]...)
			j--
			continue
		}
		k++
	}
}

// settle flattens a compact chunk whose runs outgrew maxRuns.
func (c *Chunk) settle() {
	if len(c.runs) > maxRuns {
		c.flatten()
	}
}

// mutateRuns applies fn to every run overlapping [lo, hi), splitting
// boundary runs first and re-merging afterwards. fn must not change a
// run's off/n/frames length.
func (c *Chunk) mutateRuns(lo, hi uint16, fn func(r *extRun)) {
	i := c.splitAt(lo)
	j := c.splitAt(hi)
	for k := i; k < j; k++ {
		fn(&c.runs[k])
	}
	c.mergeWindow(i, j)
	c.settle()
}

// removeRange deletes all run pages in [lo, hi), invoking free on each
// non-nil frame removed, and returns the number of present pages
// dropped.
func (c *Chunk) removeRange(lo, hi uint16, free func(*mem.Frame)) int {
	i := c.splitAt(lo)
	j := c.splitAt(hi)
	dropped := 0
	for k := i; k < j; k++ {
		r := &c.runs[k]
		if r.flags&PTEPresent != 0 {
			dropped += int(r.n)
		}
		if free != nil {
			for _, f := range r.frames {
				if f != nil {
					free(f)
				}
			}
		}
	}
	if i < j {
		c.runs = append(c.runs[:i], c.runs[j:]...)
	}
	c.settle()
	return dropped
}

// install stores value e at page offset off; a zero e clears the page.
// A compact chunk stays compact when the page fills a gap or replaces a
// one-page run, and flattens when the page rewrites part of a
// multi-page run with a different value.
func (c *Chunk) install(off uint16, e PTE) {
	if c.dense == nil {
		i := c.findRun(off)
		if i == len(c.runs) || c.runs[i].off > off {
			if e != (PTE{}) {
				c.fillGap(i, off, e)
			}
			return
		}
		r := &c.runs[i]
		switch {
		case r.pte(int(off-r.off)) == e:
			return // already stored
		case r.n == 1 && e == (PTE{}):
			c.runs = append(c.runs[:i], c.runs[i+1:]...)
			return
		case r.n == 1:
			r.store(e)
			c.mergeWindow(i, i+1)
			return
		}
		c.flatten()
	}
	c.dense[off] = e
}

// fillGap stores nonzero value e at the unmapped offset off, where i is
// the index of the first run past it. The page extends the run ending
// at off when their state matches — the shape of a sequential
// demand-fault stream — and becomes a new one-page run otherwise.
func (c *Chunk) fillGap(i int, off uint16, e PTE) {
	if i > 0 {
		if r := &c.runs[i-1]; r.end() == off && r.pteAttrEqual(e) {
			if r.frames != nil {
				r.frames = append(r.frames, e.Frame)
			}
			r.n++
			c.mergeWindow(i-1, i)
			return
		}
	}
	c.runs = append(c.runs, extRun{})
	copy(c.runs[i+1:], c.runs[i:])
	c.runs[i] = runForPTE(off, e)
	c.mergeWindow(i, i+1)
	c.settle()
}

// get returns the value at page offset off (zero PTE when unmapped).
func (c *Chunk) get(off uint16) PTE {
	i := c.findRun(off)
	if i == len(c.runs) || c.runs[i].off > off {
		return PTE{}
	}
	return c.runs[i].pte(int(off - c.runs[i].off))
}

// Ext is one maximal same-state extent reported by PageTable.Extents:
// N pages from Start sharing Flags/Age/PromoGen, backed on Node (-1
// when frameless or when the extent is a gap). Gap extents (requested
// via withGaps) have Flags == 0 and cover unmapped pages, including
// whole missing chunks and huge-mapped chunks (which the 4 KiB walk
// treats as unmapped).
type Ext struct {
	Start    VPN
	N        int
	Flags    uint8
	Age      uint8
	PromoGen uint32
	Node     topology.NodeID
}

// Extents walks [start, end) as maximal same-state extents in ascending
// order without changing the table — the read path of both encodings.
// With withGaps set, unmapped spans are reported too (Flags == 0); gaps
// are maximal within a chunk but not coalesced across chunk boundaries.
// Returning false from fn stops the walk. It is a single-span walk of a
// fresh Cursor.
func (t *PageTable) Extents(start, end VPN, withGaps bool, fn func(e Ext) bool) {
	cur := t.Cursor()
	cur.Extents(start, end, withGaps, fn)
}

// Cursor walks a sequence of ascending, disjoint spans of a page table
// — the strided-rectangle read path, where a 2 MiB chunk holds dozens
// of one-page spans. It resolves each chunk once (one chunk-map probe
// per chunk, not per span) and, within a compact chunk, advances its
// run index linearly from where the previous span ended instead of
// binary-searching again. It never changes the table. A cursor caches
// table structure, so it is valid only until the table is next
// mutated; a span that starts before the previous one ended falls back
// to a fresh search.
//
// Besides Extents, a cursor has two batch reads over a span list,
// Classify and CountNodes. They walk a flat chunk's PTE array by index
// and a compact chunk's runs in order, with no Ext value and no
// callback: a one-page span costs a few loads instead of an extent and
// a call.
type Cursor struct {
	t  *PageTable
	ci uint64 // index of the resolved chunk c (valid when resolved)
	c  *Chunk // nil for a missing chunk
	// run is a compact-chunk hint: every run before it ends at or before
	// offset next, where the previous span in the chunk ended. run < 0
	// means no span has been walked in the chunk yet.
	run      int
	next     uint16
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
		cur.ci, cur.c, cur.run, cur.resolved = ci, cur.t.chunks[ci], -1, true
	}
	return cur.c
}

// chunkStop returns where the part of [v, end) inside v's chunk ends.
func chunkStop(v, end VPN) VPN {
	return min(end, VPN((ChunkIndex(v)+1)*model.PTEChunkPages))
}

// Extents walks [start, end) exactly like PageTable.Extents. Successive
// calls should pass ascending, disjoint spans to benefit from the
// cursor's cached chunk and run position.
func (cur *Cursor) Extents(start, end VPN, withGaps bool, fn func(e Ext) bool) {
	for v := start; v < end; {
		stop := chunkStop(v, end)
		var more bool
		switch c := cur.chunk(ChunkIndex(v)); {
		case c == nil || c.Huge:
			more = emitGap(withGaps, v, int(stop-v), fn)
		case c.dense == nil:
			more = cur.walkRuns(v, stop, withGaps, fn)
		default:
			more = walkDense(c.dense, v, stop, withGaps, fn)
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
	return !withGaps || n <= 0 || fn(Ext{Start: s, N: n, Node: -1})
}

// seekRun returns the index of the first run of the cursor's compact
// chunk that ends past offset lo, starting from the run hint when lo
// lies past the previous span.
func (cur *Cursor) seekRun(lo uint16) int {
	c := cur.c
	if cur.run < 0 || lo < cur.next {
		return c.findRun(lo)
	}
	i := cur.run
	// Run offsets grow by at least one page per index, so a run starting
	// exactly at lo sits d places past the hint at the latest; check that
	// slot first, which finds the run in O(1) when the chunk holds
	// single-page runs (interleaved memory).
	if i < len(c.runs) {
		if d := int(lo) - int(c.runs[i].off); d > 0 && i+d < len(c.runs) && c.runs[i+d].off == lo {
			i += d
		}
	}
	for ; i < len(c.runs) && c.runs[i].end() <= lo; i++ {
	}
	return i
}

// parkRun sets the run hint after a span that ended at offset hi, where
// run i is the first run starting at or past hi.
func (cur *Cursor) parkRun(i int, hi uint16) {
	// Every run before i ends by hi, except possibly run i-1.
	cur.run, cur.next = i, hi
	if i > 0 && cur.c.runs[i-1].end() > hi {
		cur.run = i - 1
	}
}

// walkRuns walks [v, stop) inside the cursor's compact chunk, starting
// from the run hint, and leaves the hint at the run covering stop.
func (cur *Cursor) walkRuns(v, stop VPN, withGaps bool, fn func(e Ext) bool) bool {
	c := cur.c
	base := VPN(cur.ci * model.PTEChunkPages)
	lo, hi := uint16(v-base), uint16(stop-base)
	i, at := cur.seekRun(lo), lo
	for ; i < len(c.runs) && c.runs[i].off < hi; i++ {
		r := &c.runs[i]
		s, e := max(r.off, lo), min(r.end(), hi)
		if s > at && !emitGap(withGaps, base+VPN(at), int(s-at), fn) {
			return false
		}
		ext := Ext{Start: base + VPN(s), N: int(e - s), Node: topology.NodeID(r.node)}
		if r.flags&PTEPresent != 0 {
			ext.Flags, ext.Age, ext.PromoGen = r.flags, r.age, r.promoGen
			if !fn(ext) {
				return false
			}
		} else if !emitGap(withGaps, ext.Start, ext.N, fn) {
			return false
		}
		at = e
	}
	cur.parkRun(i, hi)
	return emitGap(withGaps, base+VPN(at), int(hi-at), fn)
}

// FaultClasses holds the pages of a walk that deny an access, filed by
// the fault each takes; every class is in ascending page order.
type FaultClasses struct {
	// Absent pages are not present: unmapped pages, and every page of
	// a missing or huge chunk, which the 4 KiB walk treats as unmapped.
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
			switch c := cur.chunk(ChunkIndex(v)); {
			case c == nil || c.Huge:
				fc.Absent = appendPages(fc.Absent, v, stop)
			case c.dense == nil:
				cur.classifyRuns(v, stop, write, fc)
			default:
				for p := v; p < stop; p++ {
					if cl := fc.class(c.dense[uint64(p)%model.PTEChunkPages].Flags, write); cl != nil {
						*cl = append(*cl, p)
					}
				}
			}
			v = stop
		}
	}
}

// classifyRuns classifies [v, stop) inside the cursor's compact chunk:
// the gaps between runs are absent, and a run files all its pages in
// one class.
func (cur *Cursor) classifyRuns(v, stop VPN, write bool, fc *FaultClasses) {
	runs := cur.c.runs
	base := VPN(cur.ci * model.PTEChunkPages)
	lo, hi := uint16(v-base), uint16(stop-base)
	i, at := cur.seekRun(lo), lo
	for ; i < len(runs) && runs[i].off < hi; i++ {
		r := &runs[i]
		s, e := max(r.off, lo), min(r.end(), hi)
		fc.Absent = appendPages(fc.Absent, base+VPN(at), base+VPN(s))
		if cl := fc.class(r.flags, write); cl != nil {
			*cl = appendPages(*cl, base+VPN(s), base+VPN(e))
		}
		at = e
	}
	cur.parkRun(i, hi)
	fc.Absent = appendPages(fc.Absent, base+VPN(at), base+VPN(hi))
}

// CountNodes adds every present page of spans to counts[node], node
// being the node of the page's frame, appends each node whose count was
// zero to order, and returns order and the number of pages counted. It
// dereferences one frame per page of a flat chunk and none in a compact
// chunk, whose runs carry their node. A present page without a frame
// backs no node, so it is not counted; no kernel path maps one. Spans
// should ascend and be disjoint, as for Extents; order is then the
// nodes' first appearance in page order.
func (cur *Cursor) CountNodes(spans []Span, counts []int, order []topology.NodeID) ([]topology.NodeID, int) {
	resident := 0
	for _, s := range spans {
		for v := s.Lo; v < s.Hi; {
			stop := chunkStop(v, s.Hi)
			switch c := cur.chunk(ChunkIndex(v)); {
			case c == nil || c.Huge:
			case c.dense == nil:
				var n int
				order, n = cur.countRuns(v, stop, counts, order)
				resident += n
			default:
				for p := v; p < stop; p++ {
					pte := &c.dense[uint64(p)%model.PTEChunkPages]
					if pte.Flags&PTEPresent != 0 && pte.Frame != nil {
						order = tally(counts, order, pte.Frame.Node, 1)
						resident++
					}
				}
			}
			v = stop
		}
	}
	return order, resident
}

// countRuns counts [v, stop) inside the cursor's compact chunk run by
// run, like CountNodes.
func (cur *Cursor) countRuns(v, stop VPN, counts []int, order []topology.NodeID) ([]topology.NodeID, int) {
	runs := cur.c.runs
	base := VPN(cur.ci * model.PTEChunkPages)
	lo, hi := uint16(v-base), uint16(stop-base)
	i, n := cur.seekRun(lo), 0
	for ; i < len(runs) && runs[i].off < hi; i++ {
		if r := &runs[i]; r.flags&PTEPresent != 0 && r.node >= 0 {
			k := int(min(r.end(), hi) - max(r.off, lo))
			order = tally(counts, order, topology.NodeID(r.node), k)
			n += k
		}
	}
	cur.parkRun(i, hi)
	return order, n
}

// tally adds n pages to counts[node], first appending node to order if
// its count was zero.
func tally(counts []int, order []topology.NodeID, node topology.NodeID, n int) []topology.NodeID {
	if counts[node] == 0 {
		order = append(order, node)
	}
	counts[node] += n
	return order
}

// frameNode returns the node backing a PTE, or -1 when it has no frame.
func frameNode(pte *PTE) topology.NodeID {
	if pte.Frame == nil {
		return -1
	}
	return pte.Frame.Node
}

// walkDense walks [v, stop) inside a flat chunk, grouping pages by the
// full attribute tuple like the compact walk.
func walkDense(d *[model.PTEChunkPages]PTE, v, stop VPN, withGaps bool, fn func(e Ext) bool) bool {
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

// Get returns the value of the PTE covering v (zero PTE when unmapped
// or inside a huge chunk).
func (t *PageTable) Get(v VPN) PTE {
	c := t.chunks[ChunkIndex(v)]
	if c == nil || c.Huge {
		return PTE{}
	}
	off := uint16(uint64(v) % model.PTEChunkPages)
	if c.dense != nil {
		return c.dense[off]
	}
	return c.get(off)
}

// Install stores value e for v, creating the covering chunk; a zero e
// unmaps the page. It is the table's one per-page write. Panics inside
// huge chunks.
func (t *PageTable) Install(v VPN, e PTE) {
	c := t.ChunkOrCreate(v)
	if c.Huge {
		panic("vm: 4k install inside huge-page chunk")
	}
	c.install(uint16(uint64(v)%model.PTEChunkPages), e)
}

// Touch performs the hardware fast path for an access to v: if the
// mapping's flag bits allow it, the accessed (and for writes dirty) bit
// is set and Touch reports true; otherwise the caller must take the
// fault path. Compact chunks only split when the touched page gains a
// bit its run does not already carry.
func (t *PageTable) Touch(v VPN, write bool) bool {
	c := t.chunks[ChunkIndex(v)]
	if c == nil || c.Huge {
		return false
	}
	off := uint16(uint64(v) % model.PTEChunkPages)
	want := PTEAccessed
	if write {
		want |= PTEDirty
	}
	if c.dense != nil {
		pte := &c.dense[off]
		if !FlagsAllow(pte.Flags, write) {
			return false
		}
		pte.Flags |= want
		return true
	}
	i := c.findRun(off)
	if i == len(c.runs) || c.runs[i].off > off {
		return false
	}
	if !FlagsAllow(c.runs[i].flags, write) {
		return false
	}
	if c.runs[i].flags&want == want {
		return true
	}
	c.mutateRuns(off, off+1, func(r *extRun) { r.flags |= want })
	return true
}

// UnmapRange clears every mapping in [start, end), invoking free on
// each backing frame, and returns the number of present pages dropped.
// Fully-cleared chunks are detached and recycled; huge chunks are left
// to the caller (they carry their frame on the chunk itself).
func (t *PageTable) UnmapRange(start, end VPN, free func(*mem.Frame)) int {
	dropped := 0
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		if c.dense != nil {
			for off := lo; off < hi; off++ {
				pte := &c.dense[off]
				if pte.Flags&PTEPresent != 0 {
					dropped++
					if free != nil && pte.Frame != nil {
						free(pte.Frame)
					}
				}
				*pte = PTE{}
			}
			return
		}
		dropped += c.removeRange(lo, hi, free)
	})
	// Recycle chunks whose whole span was cleared.
	for ci := uint64(start) / model.PTEChunkPages; ci <= uint64(end-1)/model.PTEChunkPages; ci++ {
		cs, ce := VPN(ci*model.PTEChunkPages), VPN((ci+1)*model.PTEChunkPages)
		if start <= cs && ce <= end {
			if c := t.chunks[ci]; c != nil && !c.Huge {
				t.releaseChunk(ci)
			}
		}
	}
	return dropped
}

// forRangeChunks invokes fn once per existing non-huge chunk overlapped
// by [start, end), passing the chunk-relative offset window [lo, hi).
func (t *PageTable) forRangeChunks(start, end VPN, fn func(c *Chunk, base VPN, lo, hi uint16)) {
	for v := start; v < end; {
		ci := ChunkIndex(v)
		chunkEnd := VPN((ci + 1) * model.PTEChunkPages)
		stop := end
		if chunkEnd < stop {
			stop = chunkEnd
		}
		if c := t.chunks[ci]; c != nil && !c.Huge {
			base := VPN(ci * model.PTEChunkPages)
			fn(c, base, uint16(v-base), uint16(stop-base))
		}
		v = stop
	}
}
