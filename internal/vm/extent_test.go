package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
)

// refTable is the reference model the page table is checked against: a
// plain map holding the nonzero PTE value of every mapped page.
type refTable struct {
	m map[VPN]PTE
}

func newRef() *refTable { return &refTable{m: map[VPN]PTE{}} }

func (r *refTable) install(v VPN, e PTE) {
	if e == (PTE{}) {
		delete(r.m, v)
		return
	}
	r.m[v] = e
}

func (r *refTable) setFlagsRange(start, end VPN, set, clear uint8) int {
	n := 0
	for v := start; v < end; v++ {
		if e, ok := r.m[v]; ok && e.Present() {
			e.Flags = e.Flags&^clear | set
			r.m[v] = e
			n++
		}
	}
	return n
}

func (r *refTable) armRange(start, end VPN, skip func(VPN) bool) (armed, examined int) {
	for v := start; v < end; v++ {
		e, ok := r.m[v]
		if !ok || !e.Present() {
			continue
		}
		examined++
		if e.Flags&(PTENextTouch|PTENumaHint|PTEPinned) != 0 || skip != nil && skip(v) {
			continue
		}
		e.Flags |= PTENumaHint
		r.m[v] = e
		armed++
	}
	return armed, examined
}

func (r *refTable) unmapRange(start, end VPN) int {
	n := 0
	for v := start; v < end; v++ {
		if e, ok := r.m[v]; ok {
			if e.Present() {
				n++
			}
			delete(r.m, v)
		}
	}
	return n
}

func (r *refTable) touch(v VPN, write bool) bool {
	e, ok := r.m[v]
	if !ok || !FlagsAllow(e.Flags, write) {
		return false
	}
	e.Flags |= PTEAccessed
	if write {
		e.Flags |= PTEDirty
	}
	r.m[v] = e
	return true
}

// extents returns the reference's maximal same-state extents over
// [start, end), cut at chunk boundaries like PageTable.Extents, with
// the unmapped spans too when withGaps is set.
func (r *refTable) extents(start, end VPN, withGaps bool) []Ext {
	var out []Ext
	for v := start; v < end; v++ {
		x := Ext{Start: v, N: 1, Node: -1}
		if e, ok := r.m[v]; ok && e.Present() {
			x.Flags, x.Age, x.PromoGen = e.Flags, e.Age, e.PromoGen
			if e.Frame != nil {
				x.Node = e.Frame.Node
			}
		} else if !withGaps {
			continue
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			same := last.Flags == x.Flags && last.Age == x.Age && last.PromoGen == x.PromoGen && last.Node == x.Node
			if same && last.Start+VPN(last.N) == v && ChunkIndex(last.Start) == ChunkIndex(v) {
				last.N++
				continue
			}
		}
		out = append(out, x)
	}
	return out
}

// fileRef is the reference classification: it appends the pages of
// [lo, hi), all holding flags, to the class an access of them faults
// into.
func fileRef(fc *FaultClasses, flags uint8, write bool, lo, hi VPN) {
	for v := lo; v < hi; v++ {
		switch {
		case FlagsAllow(flags, write):
		case flags&PTEPresent == 0:
			fc.Absent = append(fc.Absent, v)
		case flags&PTENextTouch != 0:
			fc.NextTouch = append(fc.NextTouch, v)
		case flags&PTENumaHint != 0:
			fc.NumaHint = append(fc.NumaHint, v)
		default:
			fc.Stale = append(fc.Stale, v)
		}
	}
}

// batchResult is what the batch reads report over one span list:
// Classify for a read and for a write, and CountNodes over nodes 0..3.
type batchResult struct {
	Read, Write FaultClasses
	Counts      []int
	Order       []topology.NodeID
	Resident    int
}

// add is the reference for the batch reads: it files and counts the
// pages [lo, hi), all holding flags and backed on node (-1 for none).
func (b *batchResult) add(lo, hi VPN, flags uint8, node topology.NodeID) {
	fileRef(&b.Read, flags, false, lo, hi)
	fileRef(&b.Write, flags, true, lo, hi)
	if flags&PTEPresent != 0 && node >= 0 {
		if b.Counts[node] == 0 {
			b.Order = append(b.Order, node)
		}
		b.Counts[node] += int(hi - lo)
		b.Resident += int(hi - lo)
	}
}

// batch is the reference's batch reads over spans, page by page.
func (r *refTable) batch(spans []Span) batchResult {
	b := batchResult{Counts: make([]int, 4)}
	for _, s := range spans {
		for v := s.Lo; v < s.Hi; v++ {
			e, node := r.m[v], topology.NodeID(-1)
			if e.Frame != nil {
				node = e.Frame.Node
			}
			b.add(v, v+1, e.Flags, node)
		}
	}
	return b
}

// batchReads runs Classify, for a read and a write, and CountNodes over
// spans, all through one cursor, so every read after the first starts
// behind the chunk the cursor resolved last.
func batchReads(pt *PageTable, spans []Span) batchResult {
	b := batchResult{Counts: make([]int, 4)}
	cur := pt.Cursor()
	cur.Classify(spans, false, &b.Read)
	cur.Classify(spans, true, &b.Write)
	b.Order, b.Resident = cur.CountNodes(spans, b.Counts, nil)
	return b
}

// randSpans draws an ascending, disjoint span list over [start, end):
// spans of one to hundreds of pages (crossing chunk boundaries), a
// third of them abutting their predecessor.
func randSpans(rng *rand.Rand, start, end VPN) []Span {
	var spans []Span
	for v := start + VPN(rng.Intn(400)); v < end && len(spans) < 80; {
		hi := min(v+VPN(1+rng.Intn([]int{3, 40, 700}[rng.Intn(3)])), end)
		spans = append(spans, Span{v, hi})
		v = hi + VPN(rng.Intn(3)*rng.Intn(200))
	}
	return spans
}

// compare asserts that the page table and the reference agree exactly
// over [start, end): Extents, with and without gaps, reports the
// reference's maximal extents, Get returns the reference value of every
// page, and over a random span list drawn from rng the batch reads file
// and count every page as the reference does. None of these reads may
// create a chunk.
func compare(t *testing.T, pt *PageTable, ref *refTable, start, end VPN, rng *rand.Rand, tag string) {
	t.Helper()
	chunks := pt.NumChunks()
	for _, withGaps := range []bool{false, true} {
		var got []Ext
		pt.Extents(start, end, withGaps, func(e Ext) bool { got = append(got, e); return true })
		if want := ref.extents(start, end, withGaps); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Extents(withGaps=%v) =\n%v\nreference\n%v", tag, withGaps, got, want)
		}
	}
	for v := start; v < end; v++ {
		if got, want := pt.Get(v), ref.m[v]; got != want {
			t.Fatalf("%s: Get(%d) = %+v, reference %+v", tag, v, got, want)
		}
	}
	spans := randSpans(rng, start, end)
	if got, want := batchReads(pt, spans), ref.batch(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: batch reads over %v =\n%+v\nreference\n%+v", tag, spans, got, want)
	}
	if n := pt.NumChunks(); n != chunks {
		t.Fatalf("%s: reads changed the chunk count from %d to %d", tag, chunks, n)
	}
}

// opSource feeds the op interpreter: *rand.Rand is one, byteSource
// replays fuzz input.
type opSource interface{ Intn(n int) int }

// byteSource draws each value from the next two input bytes, and zeros
// once the input is spent.
type byteSource []byte

func (b *byteSource) Intn(n int) int {
	v := 0
	for i := 0; i < 2 && len(*b) > 0; i++ {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

// opSpan is the VPN range the interpreter works in: three chunks, each
// missing until an op maps a page in it and again once an unmap clears
// it. compare reads viewSpan, which adds the 2 MiB at opSpan: a unit
// entry that only the unit op maps and clears, and that every read
// files as absent pages.
const (
	opSpan   = 3 * model.PTEChunkPages
	viewSpan = opSpan + model.PTEChunkPages
)

// opTable drives a page table and the reference through the same op
// stream — the interpreter shared by TestExtentDifferential and
// FuzzPageTable.
type opTable struct {
	pt     *PageTable
	ref    *refTable
	src    opSource
	frames []*mem.Frame
}

func newOpTable(src opSource) *opTable {
	frames := make([]*mem.Frame, 4)
	for i := range frames {
		frames[i] = &mem.Frame{Node: topology.NodeID(i), PFN: uint64(i)}
	}
	pt := NewPageTable()
	pt.SetHuge(opSpan, PTE{Frame: frames[0], Flags: PTEPresent | PTEAccessed})
	return &opTable{pt: pt, ref: newRef(), src: src, frames: frames}
}

func (o *opTable) vpn() VPN { return VPN(o.src.Intn(opSpan)) }

func (o *opTable) span() (VPN, VPN) {
	a, b := o.vpn(), o.vpn()
	if a > b {
		a, b = b, a
	}
	return a, b + 1
}

// value draws a present PTE from a small state space, so extents form,
// split and re-merge.
func (o *opTable) value() PTE {
	e := PTE{Flags: PTEPresent | PTERead}
	if o.src.Intn(2) == 0 {
		e.Flags |= PTEWrite
	}
	switch o.src.Intn(4) {
	case 0:
		e.Flags |= PTEAccessed
	case 1:
		e.Flags |= PTENumaHint
	case 2:
		e.Flags |= PTEPinned
	}
	if o.src.Intn(4) > 0 {
		e.Frame = o.frames[o.src.Intn(len(o.frames))]
	}
	if o.src.Intn(3) == 0 {
		e.Age = uint8(o.src.Intn(3))
	}
	if o.src.Intn(5) == 0 {
		e.PromoGen = uint32(o.src.Intn(3))
	}
	return e
}

// mask draws a set of the non-present flag bits.
func (o *opTable) mask() uint8 {
	var m uint8
	for bit := PTERead; bit != 0; bit <<= 1 {
		if o.src.Intn(3) == 0 {
			m |= bit
		}
	}
	return m
}

// step applies one op to both tables and fails on any differing count.
func (o *opTable) step(t *testing.T) {
	t.Helper()
	pt, ref := o.pt, o.ref
	switch op := o.src.Intn(11); op {
	case 0, 1, 2: // single-page write: fault, migrate, age or clear
		v := o.vpn()
		var e PTE
		if o.src.Intn(5) > 0 {
			e = o.value()
		}
		pt.Install(v, e)
		ref.install(v, e)
	case 3: // sequential demand-fault burst
		v, n, e := o.vpn(), o.src.Intn(64)+1, o.value()
		for i := VPN(0); i < VPN(n) && v+i < opSpan; i++ {
			pt.Install(v+i, e)
			ref.install(v+i, e)
		}
	case 4, 5: // mprotect-shaped permission rewrite, or arbitrary masks
		a, b := o.span()
		set, clear := Prot(o.src.Intn(4)).Flags(), PTERead|PTEWrite
		if op == 5 {
			set, clear = o.mask(), o.mask()
		}
		if got, want := pt.SetFlagsRange(a, b, set, clear), ref.setFlagsRange(a, b, set, clear); got != want {
			t.Fatalf("SetFlagsRange(%d, %d, %#x, %#x) = %d, reference %d", a, b, set, clear, got, want)
		}
	case 6, 7: // AutoNUMA scan, plain or skipping replicated-like pages
		a, b := o.span()
		var skip func(VPN) bool
		if op == 7 {
			m := VPN(2 + o.src.Intn(4))
			r := VPN(o.src.Intn(int(m)))
			skip = func(v VPN) bool { return v%m == r }
		}
		gotA, gotE := pt.ArmRange(a, b, skip)
		wantA, wantE := ref.armRange(a, b, skip)
		if gotA != wantA || gotE != wantE {
			t.Fatalf("ArmRange(%d, %d, skip=%v) = (%d, %d), reference (%d, %d)", a, b, skip != nil, gotA, gotE, wantA, wantE)
		}
	case 8: // unmap; a chunk the range covers whole is released
		a, b := o.span()
		if got, want := pt.UnmapRange(a, b, nil), ref.unmapRange(a, b); got != want {
			t.Fatalf("UnmapRange(%d, %d) = %d, reference %d", a, b, got, want)
		}
		for ci := ChunkIndex(a + model.PTEChunkPages - 1); VPN((ci+1)*model.PTEChunkPages) <= b; ci++ {
			if pt.chunks[ci] != nil {
				t.Fatalf("UnmapRange(%d, %d) kept chunk %d, which it covers whole", a, b, ci)
			}
		}
	case 9:
		v, write := o.vpn(), o.src.Intn(2) == 0
		if got, want := pt.Touch(v, write), ref.touch(v, write); got != want {
			t.Fatalf("Touch(%d, %v) = %v, reference %v", v, write, got, want)
		}
	case 10: // map or clear the unit at opSpan; the reference records nothing
		var u PTE
		if o.src.Intn(2) == 0 {
			u = PTE{Frame: o.frames[o.src.Intn(len(o.frames))], Flags: PTEPresent | PTEAccessed}
			if o.src.Intn(2) == 0 {
				u.Flags |= PTEPinned
			}
		}
		chunks := pt.NumChunks()
		pt.SetHuge(opSpan, u)
		if v := VPN(opSpan + o.src.Intn(model.PTEChunkPages)); pt.Huge(v) != u {
			t.Fatalf("Huge(%d) = %+v after SetHuge(%+v)", v, pt.Huge(v), u)
		}
		if n := pt.NumChunks(); n != chunks {
			t.Fatalf("SetHuge changed the chunk count from %d to %d", chunks, n)
		}
	}
}

// TestExtentDifferential drives the page table and the reference map
// through 20k random ops — single-page and burst installs,
// SetFlagsRange, ArmRange with and without a skip, UnmapRange, Touch
// and mapping or clearing a 2 MiB unit — checking every returned count
// and, periodically, the whole visible state (compare: Extents, Get and
// the batch reads, which read the unit's pages as absent).
func TestExtentDifferential(t *testing.T) {
	o := newOpTable(rand.New(rand.NewSource(42)))
	spanRng := rand.New(rand.NewSource(43))
	for step := 0; step < 20000; step++ {
		o.step(t)
		if step%100 == 0 {
			compare(t, o.pt, o.ref, 0, viewSpan, spanRng, "periodic")
		}
	}
	compare(t, o.pt, o.ref, 0, viewSpan, spanRng, "final")
}

// FuzzPageTable runs the TestExtentDifferential op interpreter on fuzz
// input, checking the whole visible state after every op.
func FuzzPageTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		o := newOpTable(&src)
		spanRng := rand.New(rand.NewSource(int64(len(data))))
		for step := 0; step < 256 && len(src) > 0; step++ {
			o.step(t)
			compare(t, o.pt, o.ref, 0, viewSpan, spanRng, "fuzz")
		}
	})
}

// TestCursorMatchesExtents pins multi-span cursor walks to one fresh
// Extents call per span, with and without gaps, over a table mixing
// populated and missing chunks and a 2 MiB unit: ascending span lists
// (the rect walk's shape, adjacent and chunk-crossing spans included),
// spans in random order (a span behind the resolved chunk) and walks
// that fn stops early. It pins the batch reads to the same Extents
// walks. No walk may create a chunk.
func TestCursorMatchesExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := make([]*mem.Frame, 4)
	for i := range frames {
		frames[i] = &mem.Frame{Node: topology.NodeID(i), PFN: uint64(i)}
	}
	randPTE := func() PTE {
		e := PTE{Flags: PTEPresent | PTERead | uint8(rng.Intn(2))*PTEWrite}
		if rng.Intn(4) > 0 {
			e.Frame = frames[rng.Intn(len(frames))]
		}
		return e
	}
	const chunks = 6
	const span = chunks * model.PTEChunkPages
	pt := NewPageTable()
	// Chunks 0 and 2 fill in ascending order with at most 60 runs of
	// equal pages; chunks 3 and 4 take overlapping random bursts and
	// punched gaps. Chunk 1 stays missing and a unit maps chunk 5.
	for _, ci := range []int{0, 2} {
		v, end := VPN(ci*model.PTEChunkPages), VPN((ci+1)*model.PTEChunkPages)
		for runs := 0; runs < 60 && v < end; runs++ {
			e := randPTE()
			for n := 1 + rng.Intn(12); n > 0 && v < end; n-- {
				pt.Install(v, e)
				v++
			}
			v += VPN(rng.Intn(6))
		}
	}
	for i := 0; i < 1500; i++ {
		v := VPN((3+rng.Intn(2))*model.PTEChunkPages + rng.Intn(model.PTEChunkPages))
		e := randPTE()
		for n := rng.Intn(24); n >= 0 && ChunkIndex(v) <= 4; n-- {
			pt.Install(v, e)
			v++
		}
		if rng.Intn(6) == 0 {
			pt.Install(VPN((3+rng.Intn(2))*model.PTEChunkPages+rng.Intn(model.PTEChunkPages)), PTE{}) // punch a gap
		}
	}
	pt.SetHuge(5*model.PTEChunkPages, PTE{Frame: frames[0], Flags: PTEPresent | PTEAccessed})
	nChunks := pt.NumChunks()

	collect := func(spans []Span, withGaps bool, limit int, cursor bool) []Ext {
		var out []Ext
		cur := pt.Cursor()
		for _, s := range spans {
			n := 0
			fn := func(e Ext) bool {
				out = append(out, e)
				n++
				return n != limit
			}
			if cursor {
				cur.Extents(s.Lo, s.Hi, withGaps, fn)
			} else {
				pt.Extents(s.Lo, s.Hi, withGaps, fn)
			}
		}
		return out
	}
	// The batch reads must file and count every page as the gap-walking
	// extents of the same spans do: frameless present pages (node -1)
	// are filed like any page but counted on no node.
	fromExtents := func(spans []Span) batchResult {
		b := batchResult{Counts: make([]int, len(frames))}
		for _, s := range spans {
			pt.Extents(s.Lo, s.Hi, true, func(e Ext) bool {
				b.add(e.Start, e.Start+VPN(e.N), e.Flags, e.Node)
				return true
			})
		}
		return b
	}
	for iter := 0; iter < 3000; iter++ {
		spans := randSpans(rng, 0, span)
		if iter%4 == 3 {
			rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		}
		limit := -1
		if iter%5 == 4 {
			limit = 1 + rng.Intn(3)
		}
		for _, withGaps := range []bool{false, true} {
			got, want := collect(spans, withGaps, limit, true), collect(spans, withGaps, limit, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d withGaps=%v limit=%d: cursor walk differs from per-span Extents\ncursor:  %v\nextents: %v",
					iter, withGaps, limit, got, want)
			}
		}
		if got, want := batchReads(pt, spans), fromExtents(spans); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: batch reads differ from per-span Extents over %v\nbatch:   %+v\nextents: %+v", iter, spans, got, want)
		}
	}
	// Pin Extents itself page-for-page against Get once.
	frameless := 0
	pt.Extents(0, span, true, func(e Ext) bool {
		if e.Flags&PTEPresent != 0 && e.Node < 0 {
			frameless += e.N
		}
		for v := e.Start; v < e.Start+VPN(e.N); v++ {
			p := pt.Get(v)
			if p.Flags != e.Flags || (p.Frame != nil && p.Frame.Node != e.Node) {
				t.Fatalf("Get(%d) = %+v disagrees with extent %+v", v, p, e)
			}
		}
		return true
	})
	if frameless == 0 {
		t.Fatal("the table holds no frameless present page")
	}
	if pt.NumChunks() != nChunks {
		t.Fatalf("walks changed the table: %d chunks, was %d", pt.NumChunks(), nChunks)
	}
}
