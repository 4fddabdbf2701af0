package vm

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
)

// refTable is the dense reference model the extent store is checked
// against: a plain map of nonzero PTE values.
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

func (r *refTable) get(v VPN) PTE { return r.m[v] }

func (r *refTable) setProtRange(start, end VPN, prot Prot) int {
	n := 0
	for v := start; v < end; v++ {
		if e, ok := r.m[v]; ok && e.Flags&PTEPresent != 0 {
			e.SetProt(prot)
			r.m[v] = e
			n++
		}
	}
	return n
}

func (r *refTable) armRange(start, end VPN) (armed, examined int) {
	for v := start; v < end; v++ {
		e, ok := r.m[v]
		if !ok || e.Flags&PTEPresent == 0 {
			continue
		}
		examined++
		if e.Flags&(PTENextTouch|PTENumaHint|PTEPinned) != 0 {
			continue
		}
		e.Flags |= PTENumaHint
		r.m[v] = e
		armed++
	}
	return
}

func (r *refTable) clearAccessedRange(start, end VPN) int {
	n := 0
	for v := start; v < end; v++ {
		if e, ok := r.m[v]; ok && e.Flags&(PTEPresent|PTEAccessed) == PTEPresent|PTEAccessed {
			e.Flags &^= PTEAccessed
			e.Age = 0
			r.m[v] = e
			n++
		}
	}
	return n
}

func (r *refTable) orFlagsRange(start, end VPN, mask uint8) int {
	n := 0
	for v := start; v < end; v++ {
		if e, ok := r.m[v]; ok && e.Flags&PTEPresent != 0 {
			e.Flags |= mask
			r.m[v] = e
			n++
		}
	}
	return n
}

func (r *refTable) unmapRange(start, end VPN) int {
	n := 0
	for v := start; v < end; v++ {
		if e, ok := r.m[v]; ok {
			if e.Flags&PTEPresent != 0 {
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

// compare asserts the extent table and the reference agree exactly over
// [start, end): same present visit set via ForEach is destructive to
// compactness (it materializes), so the walk uses Extents + Get.
func compare(t *testing.T, pt *PageTable, ref *refTable, start, end VPN, tag string) {
	t.Helper()
	// Extents must reproduce every nonzero present entry with exact state.
	got := map[VPN]PTE{}
	pt.Extents(start, end, false, func(e Ext) bool {
		for i := 0; i < e.N; i++ {
			v := e.Start + VPN(i)
			p := pt.Get(v)
			if p.Flags != e.Flags || p.Age != e.Age || p.PromoGen != e.PromoGen {
				t.Fatalf("%s: Get(%d) = %+v disagrees with extent %+v", tag, v, p, e)
			}
			if p.Frame != nil && p.Frame.Node != e.Node {
				t.Fatalf("%s: extent node %d but frame node %d at %d", tag, e.Node, p.Frame.Node, v)
			}
			got[v] = p
		}
		return true
	})
	want := map[VPN]PTE{}
	for v, e := range ref.m {
		if v >= start && v < end && e.Flags&PTEPresent != 0 {
			want[v] = e
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d present pages, reference has %d", tag, len(got), len(want))
	}
	for v, e := range want {
		if got[v] != e {
			t.Fatalf("%s: page %d = %+v, reference %+v", tag, v, got[v], e)
		}
	}
	// Extents must be ascending, non-overlapping, maximal-within-chunk.
	lastEnd := VPN(0)
	pt.Extents(start, end, true, func(e Ext) bool {
		if e.Start < lastEnd {
			t.Fatalf("%s: extent at %d overlaps previous end %d", tag, e.Start, lastEnd)
		}
		if e.N <= 0 {
			t.Fatalf("%s: empty extent at %d", tag, e.Start)
		}
		lastEnd = e.Start + VPN(e.N)
		return true
	})
}

// TestExtentDifferential drives the extent-stored page table and a dense
// reference model through randomized fault/protect/arm/age/unmap traces
// — including forced materialization (Lookup) and re-compaction
// (Coalesce) — asserting identical visible state and identical returned
// counts after every operation.
func TestExtentDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	frames := make([]*mem.Frame, 4)
	for i := range frames {
		frames[i] = &mem.Frame{Node: topology.NodeID(i), PFN: uint64(i)}
	}
	const span = 3 * model.PTEChunkPages // three chunks
	randVPN := func() VPN { return VPN(rng.Intn(span)) }
	randRange := func() (VPN, VPN) {
		a, b := randVPN(), randVPN()
		if a > b {
			a, b = b, a
		}
		return a, b + 1
	}
	randPTE := func() PTE {
		e := PTE{Flags: PTEPresent | PTERead}
		if rng.Intn(2) == 0 {
			e.Flags |= PTEWrite
		}
		switch rng.Intn(4) {
		case 0:
			e.Flags |= PTEAccessed
		case 1:
			e.Flags |= PTENumaHint
		case 2:
			e.Flags |= PTEPinned
		}
		if rng.Intn(4) > 0 {
			e.Frame = frames[rng.Intn(len(frames))]
		}
		if rng.Intn(3) == 0 {
			e.Age = uint8(rng.Intn(3))
		}
		if rng.Intn(5) == 0 {
			e.PromoGen = uint32(rng.Intn(3))
		}
		return e
	}

	pt := NewPageTable()
	ref := newRef()
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1, 2: // single-page install (fault/migrate/clear)
			v := randVPN()
			var e PTE
			if rng.Intn(5) > 0 {
				e = randPTE()
			}
			pt.Install(v, e)
			ref.install(v, e)
		case 3: // run install: sequential demand-fault burst
			v := randVPN()
			n := rng.Intn(64) + 1
			e := randPTE()
			for i := 0; i < n && v+VPN(i) < span; i++ {
				pt.Install(v+VPN(i), e)
				ref.install(v+VPN(i), e)
			}
		case 4:
			a, b := randRange()
			prot := Prot(rng.Intn(4))
			if got, want := pt.SetProtRange(a, b, prot), ref.setProtRange(a, b, prot); got != want {
				t.Fatalf("step %d: SetProtRange = %d, reference %d", step, got, want)
			}
		case 5:
			a, b := randRange()
			gotA, gotE := pt.ArmRange(a, b, nil)
			wantA, wantE := ref.armRange(a, b)
			if gotA != wantA || gotE != wantE {
				t.Fatalf("step %d: ArmRange = (%d,%d), reference (%d,%d)", step, gotA, gotE, wantA, wantE)
			}
		case 6:
			a, b := randRange()
			if got, want := pt.ClearAccessedRange(a, b), ref.clearAccessedRange(a, b); got != want {
				t.Fatalf("step %d: ClearAccessedRange = %d, reference %d", step, got, want)
			}
		case 7:
			a, b := randRange()
			if got, want := pt.UnmapRange(a, b, nil), ref.unmapRange(a, b); got != want {
				t.Fatalf("step %d: UnmapRange = %d, reference %d", step, got, want)
			}
		case 8:
			v := randVPN()
			write := rng.Intn(2) == 0
			if got, want := pt.Touch(v, write), ref.touch(v, write); got != want {
				t.Fatalf("step %d: Touch(%d,%v) = %v, reference %v", step, v, write, got, want)
			}
		case 9:
			a, b := randRange()
			mask := uint8(PTEAccessed)
			if rng.Intn(2) == 0 {
				mask |= PTEDirty
			}
			if got, want := pt.OrFlagsRange(a, b, mask), ref.orFlagsRange(a, b, mask); got != want {
				t.Fatalf("step %d: OrFlagsRange = %d, reference %d", step, got, want)
			}
		}
		// Randomly flip representation modes mid-trace.
		if rng.Intn(50) == 0 {
			pt.Lookup(randVPN()) // force-materialize one chunk
		}
		if rng.Intn(50) == 0 {
			pt.Coalesce(0, span) // re-compact everything compactable
		}
		if step%500 == 0 {
			compare(t, pt, ref, 0, span, "periodic")
		}
	}
	compare(t, pt, ref, 0, span, "final")

	// The two legacy view walks must agree with the reference too (they
	// materialize, so they run last).
	var visited []VPN
	pt.ForEach(0, span, func(v VPN, pte *PTE) {
		visited = append(visited, v)
		if *pte != ref.m[v] {
			t.Fatalf("ForEach(%d) = %+v, reference %+v", v, *pte, ref.m[v])
		}
	})
	var present []VPN
	for v, e := range ref.m {
		if e.Flags&PTEPresent != 0 {
			present = append(present, v)
		}
	}
	sort.Slice(present, func(i, j int) bool { return present[i] < present[j] })
	if len(visited) != len(present) {
		t.Fatalf("ForEach visited %d pages, reference has %d present", len(visited), len(present))
	}
	for i := range visited {
		if visited[i] != present[i] {
			t.Fatalf("ForEach visit #%d = %d, reference %d", i, visited[i], present[i])
		}
	}
	runs := 0
	pt.ForEachRun(0, span, func(r Run) { runs += r.Len() })
	if runs != len(present) {
		t.Fatalf("ForEachRun covered %d pages, reference has %d", runs, len(present))
	}
}

// TestExtentSparseFootprint maps one page per chunk across a 4 TB
// virtual span and asserts the compact representation stays orders of
// magnitude below dense chunks: a materialized chunk costs ~12 KiB of
// PTE array, a compact one a header plus one run (~150 B measured). The
// same mapping with dense storage would be ~25 GB of PTE arrays.
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
	// Dense chunks would cost 512*24 B = 12 KiB each; require at least a
	// 10x win to guard against accidental materialization on this path.
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
// compact, dense, missing and huge chunks: ascending span lists (the
// rect walk's shape, adjacent and chunk-crossing spans included), spans
// in random order (the fresh-search fallback) and walks that fn stops
// early. Neither walk may materialize or create a chunk.
func TestCursorMatchesExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := make([]*mem.Frame, 4)
	for i := range frames {
		frames[i] = &mem.Frame{Node: topology.NodeID(i), PFN: uint64(i)}
	}
	const chunks = 6
	const span = chunks * model.PTEChunkPages
	pt := NewPageTable()
	for i := 0; i < 3000; i++ {
		v := VPN(rng.Intn(span))
		e := PTE{Flags: PTEPresent | PTERead | uint8(rng.Intn(2))*PTEWrite}
		if rng.Intn(4) > 0 {
			e.Frame = frames[rng.Intn(len(frames))]
		}
		for n := rng.Intn(24); n >= 0 && v < span; n-- {
			if ci := ChunkIndex(v); ci != 1 && ci != 5 { // 1 stays missing, 5 becomes huge
				pt.Install(v, e)
			}
			v++
		}
		if rng.Intn(6) == 0 {
			pt.Install(VPN(rng.Intn(span)), PTE{}) // punch a gap
		}
	}
	pt.Lookup(3 * model.PTEChunkPages) // chunk 3 dense
	pt.ChunkOrCreate(5 * model.PTEChunkPages).Huge = true
	nChunks, nDense := pt.NumChunks(), pt.DenseChunks()
	if nDense != 1 {
		t.Fatalf("DenseChunks = %d, want 1", nDense)
	}

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
		t.Fatalf("walks changed the table: %d chunks (%d dense), was %d (%d)",
			pt.NumChunks(), pt.DenseChunks(), nChunks, nDense)
	}
}
