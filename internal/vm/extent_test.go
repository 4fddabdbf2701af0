package vm

import (
	"math/rand"
	"reflect"
	"runtime"
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

// compare asserts that the page table and the reference agree exactly
// over [start, end): Extents, with and without gaps, reports the
// reference's maximal extents, and Get returns the reference value of
// every page.
func compare(t *testing.T, pt *PageTable, ref *refTable, start, end VPN, tag string) {
	t.Helper()
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
}

// checkChunks asserts the encoding invariants — a compact chunk holds at
// most maxRuns sorted, disjoint, non-empty runs whose frames sit on the
// run's node; a flat chunk holds no runs — and returns how many chunks
// of each encoding the table has.
func checkChunks(t *testing.T, pt *PageTable) (compact, flat int) {
	t.Helper()
	for ci, c := range pt.chunks {
		switch {
		case c.Huge:
			continue
		case c.dense != nil:
			if c.runs != nil {
				t.Fatalf("flat chunk %d still holds %d runs", ci, len(c.runs))
			}
			flat++
			continue
		}
		compact++
		if len(c.runs) > maxRuns {
			t.Fatalf("compact chunk %d holds %d runs, over maxRuns %d", ci, len(c.runs), maxRuns)
		}
		for i, r := range c.runs {
			if r.n == 0 || r.end() > model.PTEChunkPages || i > 0 && c.runs[i-1].end() > r.off {
				t.Fatalf("chunk %d run %d (%d+%d) is empty, out of range or overlaps its predecessor", ci, i, r.off, r.n)
			}
			if r.frames == nil && r.node != -1 || r.frames != nil && len(r.frames) != int(r.n) {
				t.Fatalf("chunk %d run %d: %d frames for %d pages on node %d", ci, i, len(r.frames), r.n, r.node)
			}
			for _, f := range r.frames {
				if f == nil || int32(f.Node) != r.node {
					t.Fatalf("chunk %d run %d on node %d holds frame %+v", ci, i, r.node, f)
				}
			}
		}
	}
	return compact, flat
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

// opSpan is the VPN range the interpreter works in: three chunks.
const opSpan = 3 * model.PTEChunkPages

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
	return &opTable{pt: NewPageTable(), ref: newRef(), src: src, frames: frames}
}

func (o *opTable) vpn() VPN { return VPN(o.src.Intn(opSpan)) }

func (o *opTable) span() (VPN, VPN) {
	a, b := o.vpn(), o.vpn()
	if a > b {
		a, b = b, a
	}
	return a, b + 1
}

// value draws a present PTE from a small state space, so runs form,
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
	switch op := o.src.Intn(10); op {
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
	case 8:
		a, b := o.span()
		if got, want := pt.UnmapRange(a, b, nil), ref.unmapRange(a, b); got != want {
			t.Fatalf("UnmapRange(%d, %d) = %d, reference %d", a, b, got, want)
		}
	case 9:
		v, write := o.vpn(), o.src.Intn(2) == 0
		if got, want := pt.Touch(v, write), ref.touch(v, write); got != want {
			t.Fatalf("Touch(%d, %v) = %v, reference %v", v, write, got, want)
		}
	}
}

// TestExtentDifferential drives the page table and the reference map
// through 20k random ops — single-page and run installs, SetFlagsRange,
// ArmRange with and without a skip, UnmapRange and Touch — checking
// every returned count and, periodically, the whole visible state and
// the encoding invariants. Chunks pick their encoding from their data
// alone, and the trace must see both encodings.
func TestExtentDifferential(t *testing.T) {
	o := newOpTable(rand.New(rand.NewSource(42)))
	compactSeen, flatSeen := 0, 0
	for step := 0; step < 20000; step++ {
		o.step(t)
		if step%100 == 0 {
			compare(t, o.pt, o.ref, 0, opSpan, "periodic")
			c, f := checkChunks(t, o.pt)
			compactSeen += c
			flatSeen += f
		}
	}
	compare(t, o.pt, o.ref, 0, opSpan, "final")
	if compactSeen == 0 || flatSeen == 0 {
		t.Fatalf("sampled %d compact and %d flat chunks; the trace must reach both encodings", compactSeen, flatSeen)
	}
}

// FuzzPageTable runs the TestExtentDifferential op interpreter on fuzz
// input, checking the whole visible state and the encoding invariants
// after every op.
func FuzzPageTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		o := newOpTable(&src)
		for step := 0; step < 256 && len(src) > 0; step++ {
			o.step(t)
			compare(t, o.pt, o.ref, 0, opSpan, "fuzz")
			checkChunks(t, o.pt)
		}
	})
}

// TestChunkEncodingSwitch pins the rule that picks a chunk's encoding
// from its data alone. A 512-page run of one state stays compact
// through reads and writes that keep it one run; one differing
// overwrite inside it flattens the chunk, and unmapping the chunk
// releases it. A chunk filled with one-page runs flattens when the run
// count passes maxRuns.
func TestChunkEncodingSwitch(t *testing.T) {
	frames := make([]mem.Frame, model.PTEChunkPages)
	pt := NewPageTable()
	e := PTE{Flags: PTEPresent | PTERead | PTEWrite}
	for i := range frames {
		frames[i].Node = 1
		e.Frame = &frames[i]
		pt.Install(VPN(i), e)
	}
	c := pt.Chunk(0)
	pt.Install(7, pt.Get(7))
	pt.Lookup(9)
	pt.Extents(0, model.PTEChunkPages, true, func(Ext) bool { return true })
	pt.SetFlagsRange(0, model.PTEChunkPages, PTEAccessed, 0)
	pt.ArmRange(0, model.PTEChunkPages, func(VPN) bool { return false })
	pt.Touch(5, false)
	if c.dense != nil || len(c.runs) != 1 || pt.DenseChunks() != 0 {
		t.Fatalf("one-state chunk: %d runs, %d flat chunks; want 1 compact run", len(c.runs), pt.DenseChunks())
	}
	d := pt.Get(100)
	d.Age = 1
	pt.Install(100, d)
	if c.dense == nil || pt.DenseChunks() != 1 {
		t.Fatal("a differing overwrite inside a 512-page run left the chunk compact")
	}
	if pt.Get(100) != d || pt.Get(99).Age != 0 || pt.Get(101).Frame != &frames[101] {
		t.Fatalf("flat chunk reads back %+v / %+v / %+v", pt.Get(99), pt.Get(100), pt.Get(101))
	}
	if n := pt.UnmapRange(0, model.PTEChunkPages, nil); n != model.PTEChunkPages || pt.NumChunks() != 0 {
		t.Fatalf("UnmapRange dropped %d pages and left %d chunks; want %d and 0", n, pt.NumChunks(), model.PTEChunkPages)
	}

	for i := 0; i <= maxRuns; i++ {
		pt.Install(VPN(2*i), PTE{Flags: PTEPresent | PTERead})
		if want := i == maxRuns; (pt.DenseChunks() == 1) != want {
			t.Fatalf("after %d one-page runs: %d flat chunks", i+1, pt.DenseChunks())
		}
	}
}

// TestExtentSparseFootprint maps one page per chunk across a 4 TB
// virtual span and asserts the compact representation stays orders of
// magnitude below flat chunks: a flat chunk costs ~12 KiB of PTE array,
// a compact one a header plus one run (~150 B measured). The same
// mapping in flat chunks would be ~25 GB of PTE arrays.
func TestExtentSparseFootprint(t *testing.T) {
	const chunkBytes = model.PTEChunkPages * model.PageSize
	const chunks = 4 << 40 / chunkBytes // 4 TB span, one page per 2 MiB chunk

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	pt := NewPageTable()
	for i := 0; i < chunks; i++ {
		pt.Install(VPN(i*model.PTEChunkPages), PTE{Flags: PTEPresent | PTERead})
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perChunk := bytes / chunks
	t.Logf("4TB sparse mapping: %d chunks, %d bytes total, %d bytes/chunk", chunks, bytes, perChunk)
	if pt.NumChunks() != chunks {
		t.Fatalf("NumChunks = %d, want %d", pt.NumChunks(), chunks)
	}
	// Flat chunks would cost 512*24 B = 12 KiB each; require at least a
	// 10x win to guard against accidental flattening on this path.
	if perChunk > 1200 {
		t.Fatalf("sparse mapping costs %d bytes/chunk; compact representation should stay under 1200", perChunk)
	}
	// The mapping must still read back correctly.
	n := 0
	pt.Extents(0, VPN(chunks*model.PTEChunkPages), false, func(e Ext) bool { n += e.N; return true })
	if n != chunks {
		t.Fatalf("resident pages = %d, want %d", n, chunks)
	}
	runtime.KeepAlive(pt)
}

// TestCursorMatchesExtents pins multi-span cursor walks to one fresh
// Extents call per span, with and without gaps, over a table mixing
// compact, flat, missing and huge chunks: ascending span lists (the
// rect walk's shape, adjacent and chunk-crossing spans included), spans
// in random order (the fresh-search fallback) and walks that fn stops
// early. Neither walk may change a chunk's encoding or create a chunk.
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
	// Chunks 0 and 2 fill in ascending order with at most 60 runs, so
	// they stay compact; chunks 3 and 4 take overlapping random bursts,
	// whose overwrites inside runs flatten them. Chunk 1 stays missing
	// and chunk 5 becomes huge.
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
	pt.ChunkOrCreate(5 * model.PTEChunkPages).Huge = true
	for _, want := range []struct {
		ci   uint64
		flat bool
	}{{0, false}, {2, false}, {3, true}, {4, true}} {
		if c := pt.chunks[want.ci]; c == nil || (c.dense != nil) != want.flat {
			t.Fatalf("chunk %d: flat=%v, want %v", want.ci, c != nil && c.dense != nil, want.flat)
		}
	}
	nChunks, nDense := pt.NumChunks(), pt.DenseChunks()

	type walk struct{ lo, hi VPN }
	collect := func(spans []walk, withGaps bool, limit int, cursor bool) []Ext {
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
				cur.Extents(s.lo, s.hi, withGaps, fn)
			} else {
				pt.Extents(s.lo, s.hi, withGaps, fn)
			}
		}
		return out
	}
	for iter := 0; iter < 3000; iter++ {
		var spans []walk
		for v := VPN(rng.Intn(400)); v < span && len(spans) < 80; {
			n := VPN(1 + rng.Intn([]int{3, 40, 700}[rng.Intn(3)]))
			hi := min(v+n, span)
			spans = append(spans, walk{v, hi})
			v = hi + VPN(rng.Intn(3)*rng.Intn(200)) // adjacent a third of the time
		}
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
	}
	// Pin Extents itself page-for-page against Get once.
	pt.Extents(0, span, true, func(e Ext) bool {
		for v := e.Start; v < e.Start+VPN(e.N); v++ {
			p := pt.Get(v)
			if p.Flags != e.Flags || (p.Frame != nil && p.Frame.Node != e.Node) {
				t.Fatalf("Get(%d) = %+v disagrees with extent %+v", v, p, e)
			}
		}
		return true
	})
	if pt.NumChunks() != nChunks || pt.DenseChunks() != nDense {
		t.Fatalf("walks changed the table: %d chunks (%d flat), was %d (%d)",
			pt.NumChunks(), pt.DenseChunks(), nChunks, nDense)
	}
}
