package vm

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
)

func newSpace() *Space {
	return NewSpace(mem.NewPhys(topology.Opteron4x4(), false))
}

func TestAddrHelpers(t *testing.T) {
	if PageOf(4095) != 0 || PageOf(4096) != 1 {
		t.Fatal("PageOf boundary wrong")
	}
	if VPN(3).Base() != 3*4096 {
		t.Fatal("VPN.Base wrong")
	}
	if PageFloor(4097) != 4096 || PageCeil(4097) != 8192 || PageCeil(8192) != 8192 {
		t.Fatal("floor/ceil wrong")
	}
	if PagesIn(4095, 2) != 2 {
		t.Fatalf("PagesIn straddle = %d, want 2", PagesIn(4095, 2))
	}
	if PagesIn(0, 4096) != 1 {
		t.Fatal("PagesIn exact")
	}
	if PagesIn(0, 0) != 0 {
		t.Fatal("PagesIn empty")
	}
}

func TestProt(t *testing.T) {
	if ProtNone.Allows(false) || ProtNone.Allows(true) {
		t.Fatal("ProtNone allows access")
	}
	if !ProtRead.Allows(false) || ProtRead.Allows(true) {
		t.Fatal("ProtRead wrong")
	}
	if !ProtRW.Allows(true) {
		t.Fatal("ProtRW wrong")
	}
	if ProtRW.String() != "rw" || ProtRead.String() != "r-" {
		t.Fatal("Prot.String wrong")
	}
}

func TestPTEFlags(t *testing.T) {
	var p PTE
	if p.Present() || FlagsAllow(p.Flags, false) {
		t.Fatal("zero PTE should be absent")
	}
	if ProtNone.Flags() != 0 || ProtRead.Flags() != PTERead || ProtRW.Flags() != PTERead|PTEWrite {
		t.Fatal("Prot.Flags wrong")
	}
	p.Flags = PTEPresent | ProtRW.Flags()
	if !FlagsAllow(p.Flags, true) || !FlagsAllow(p.Flags, false) {
		t.Fatal("rw PTE should allow access")
	}
	p.Flags |= PTENextTouch
	if FlagsAllow(p.Flags, false) {
		t.Fatal("next-touch PTE must fault on access")
	}
	p.Flags = PTEPresent | ProtRead.Flags()
	if FlagsAllow(p.Flags, true) {
		t.Fatal("read-only PTE allows write")
	}
}

func TestPageTableSparse(t *testing.T) {
	pt := NewPageTable()
	if pt.Lookup(123).Present() || pt.NumChunks() != 0 {
		t.Fatal("lookup in an empty table should find nothing and create nothing")
	}
	pt.Install(123, PTE{Flags: PTEPresent})
	if !pt.Lookup(123).Present() {
		t.Fatal("entry not visible")
	}
	if pt.NumChunks() != 1 {
		t.Fatalf("chunks = %d", pt.NumChunks())
	}
	// Far-away VPN allocates a second chunk.
	pt.Install(1<<20, PTE{Flags: PTEPresent})
	if pt.NumChunks() != 2 {
		t.Fatalf("chunks = %d", pt.NumChunks())
	}
}

// TestUnitIsAnEntryNotAChunk pins a 2 MiB unit as one entry beside the
// chunks: a chunk is exactly its 512 PTEs (8 KiB, one Go size class),
// a unit creates no chunk and its pages read as absent, and an index
// never holds both kinds — installing a page under a unit and mapping
// a unit over a chunk both panic.
func TestUnitIsAnEntryNotAChunk(t *testing.T) {
	if got := unsafe.Sizeof(Chunk{}); got != 8192 {
		t.Fatalf("a chunk is %d bytes, want 8192", got)
	}
	pt := NewPageTable()
	u := PTE{Frame: &mem.Frame{Node: 2}, Flags: PTEPresent | PTEAccessed}
	pt.SetHuge(model.PTEChunkPages+7, u)
	if pt.NumChunks() != 0 {
		t.Fatal("a unit created a chunk")
	}
	if got := pt.Huge(2*model.PTEChunkPages - 1); got != u {
		t.Fatalf("Huge = %+v, want %+v", got, u)
	}
	if pt.Get(model.PTEChunkPages).Present() || pt.Touch(model.PTEChunkPages, false) {
		t.Fatal("a unit's page reads as a present 4 KiB page")
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Install under a unit", func() { pt.Install(model.PTEChunkPages+3, PTE{Flags: PTEPresent}) })
	pt.Install(3, PTE{Flags: PTEPresent})
	mustPanic("SetHuge over a chunk", func() { pt.SetHuge(0, u) })
	pt.SetHuge(model.PTEChunkPages, PTE{})
	if pt.Huge(model.PTEChunkPages).Present() {
		t.Fatal("a zero SetHuge left the unit")
	}
	pt.Install(model.PTEChunkPages+3, PTE{Flags: PTEPresent})
	if pt.NumChunks() != 2 {
		t.Fatalf("chunks = %d, want 2", pt.NumChunks())
	}
}

// TestUnmapReleasesBareChunks: an unmap releases every chunk that no
// VMA overlaps any more, like Linux's free_pgtables, even one it does
// not cover whole, keeps a chunk a surviving VMA still reaches, and
// returns the span of indices it released.
func TestUnmapReleasesBareChunks(t *testing.T) {
	s := newSpace()
	populate := func(a Addr, pages int) {
		for i := 0; i < pages; i++ {
			f, err := s.Phys.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			s.PT.Install(PageOf(a)+VPN(i), PTE{Frame: f, Flags: PTEPresent | ProtRW.Flags()})
		}
	}
	unmap := func(a Addr, length int64, lo, hi uint64) {
		t.Helper()
		gotLo, gotHi, err := s.Unmap(a, length)
		if err != nil {
			t.Fatal(err)
		}
		empty := gotLo >= gotHi && lo >= hi
		if !empty && (gotLo != lo || gotHi != hi) {
			t.Fatalf("unmap released chunks [%d, %d), want [%d, %d)", gotLo, gotHi, lo, hi)
		}
	}
	// Three 8-page buffers in one chunk, guard pages between them.
	var bufs [3]Addr
	for i := range bufs {
		bufs[i], _ = s.Map(8*model.PageSize, ProtRW, DefaultPolicy(), 0, "buf")
		populate(bufs[i], 8)
	}
	if s.PT.NumChunks() != 1 {
		t.Fatalf("chunks = %d, want 1", s.PT.NumChunks())
	}
	ci := ChunkIndex(PageOf(bufs[0]))
	unmap(bufs[0], 8*model.PageSize, 0, 0)
	if s.PT.NumChunks() != 1 {
		t.Fatal("unmap released a chunk two VMAs still overlap")
	}
	// One unmap across the last two buffers and the guard page between.
	unmap(bufs[1], int64(bufs[2]-bufs[1])+8*model.PageSize, ci, ci+1)
	if s.PT.NumChunks() != 0 || s.Phys.Stats(0).Allocated != 0 {
		t.Fatalf("after the last unmap: %d chunks, %d frames", s.PT.NumChunks(), s.Phys.Stats(0).Allocated)
	}
	// An unmap over empty space releases nothing.
	unmap(bufs[0], 1<<40, 0, 0)
	// A 3 MiB buffer over two chunks: unmapping its head frees the first
	// chunk only once nothing of the VMA reaches into it.
	a, _ := s.Map(768*model.PageSize, ProtRW, DefaultPolicy(), 0, "big")
	populate(a, 768)
	chunks := s.PT.NumChunks()
	unmap(a, 8*model.PageSize, 0, 0)
	if s.PT.NumChunks() != chunks {
		t.Fatal("unmap of the head released a chunk the VMA's rest still overlaps")
	}
	unmap(a+8*model.PageSize, 760*model.PageSize, ChunkIndex(PageOf(a)), ChunkIndex(PageOf(a+767*model.PageSize))+1)
	if s.PT.NumChunks() != 0 {
		t.Fatalf("chunks = %d after unmapping everything", s.PT.NumChunks())
	}
}

func TestPageTableExtentsOrdered(t *testing.T) {
	pt := NewPageTable()
	for _, v := range []VPN{5, 600, 3, 1024} {
		pt.Install(v, PTE{Flags: PTEPresent})
	}
	pages := func(start, end VPN) []VPN {
		var got []VPN
		pt.Extents(start, end, false, func(e Ext) bool {
			for i := 0; i < e.N; i++ {
				got = append(got, e.Start+VPN(i))
			}
			return true
		})
		return got
	}
	if got, want := pages(0, 2000), []VPN{3, 5, 600, 1024}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got, want := pages(4, 601), []VPN{5, 600}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded walk got %v, want %v", got, want)
	}
}

// Policies are pure data here; target resolution is covered in
// internal/placement. This test pins the data-side invariants VMA
// merging depends on.
func TestPolicyEquality(t *testing.T) {
	if !Interleave(1, 2).Equal(Interleave(1, 2)) {
		t.Fatal("Equal false negative")
	}
	if Interleave(1, 2).Equal(Interleave(2, 1)) {
		t.Fatal("Equal false positive")
	}
	wi := WeightedInterleave([]topology.NodeID{0, 1}, []int{3, 1})
	if !wi.Equal(WeightedInterleave([]topology.NodeID{0, 1}, []int{3, 1})) {
		t.Fatal("weighted Equal false negative")
	}
	if wi.Equal(WeightedInterleave([]topology.NodeID{0, 1}, []int{1, 3})) {
		t.Fatal("weighted Equal ignores weights")
	}
	if wi.Equal(Interleave(0, 1)) {
		t.Fatal("weighted Equal ignores kind")
	}
	if wi.TotalWeight() != 4 || wi.Weight(0) != 3 || wi.Weight(1) != 1 {
		t.Fatalf("weights: total=%d w0=%d w1=%d", wi.TotalWeight(), wi.Weight(0), wi.Weight(1))
	}
	// Missing or non-positive weights count as 1.
	partial := WeightedInterleave([]topology.NodeID{0, 1, 2}, []int{2})
	if partial.TotalWeight() != 4 || partial.Weight(2) != 1 {
		t.Fatalf("partial weights: total=%d", partial.TotalWeight())
	}
}

func TestMapFindUnmap(t *testing.T) {
	s := newSpace()
	a, err := s.Map(10*model.PageSize, ProtRW, DefaultPolicy(), 0, "buf")
	if err != nil {
		t.Fatal(err)
	}
	v := s.Find(a)
	if v == nil || v.Pages() != 10 || v.Label != "buf" {
		t.Fatalf("vma = %v", v)
	}
	if s.Find(a+10*model.PageSize) == v {
		t.Fatal("Find beyond end returned vma")
	}
	if _, _, err := s.Unmap(a, 10*model.PageSize); err != nil {
		t.Fatal(err)
	}
	if s.Find(a) != nil {
		t.Fatal("vma survives unmap")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoMapsDisjoint(t *testing.T) {
	s := newSpace()
	a, _ := s.Map(4*model.PageSize, ProtRW, DefaultPolicy(), 0, "a")
	b, _ := s.Map(4*model.PageSize, ProtRW, DefaultPolicy(), 0, "b")
	if a == b || (b >= a && b < a+4*model.PageSize) {
		t.Fatalf("maps overlap: %#x %#x", a, b)
	}
	if s.NumVMAs() != 2 {
		t.Fatalf("vmas = %d", s.NumVMAs())
	}
}

func TestApplySplitsAndMerges(t *testing.T) {
	s := newSpace()
	a, _ := s.Map(10*model.PageSize, ProtRW, DefaultPolicy(), 0, "buf")
	// Protect the middle 4 pages.
	mid := a + 3*model.PageSize
	err := s.Apply(mid, mid+4*model.PageSize, func(v *VMA) { v.Prot = ProtNone })
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVMAs() != 3 {
		t.Fatalf("vmas after split = %d, want 3", s.NumVMAs())
	}
	if got := s.Find(mid).Prot; got != ProtNone {
		t.Fatalf("middle prot = %v", got)
	}
	if got := s.Find(a).Prot; got != ProtRW {
		t.Fatalf("head prot = %v", got)
	}
	// Restoring merges back into one.
	err = s.Apply(mid, mid+4*model.PageSize, func(v *VMA) { v.Prot = ProtRW })
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVMAs() != 1 {
		t.Fatalf("vmas after merge = %d, want 1", s.NumVMAs())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapPartial(t *testing.T) {
	s := newSpace()
	phys := s.Phys
	a, _ := s.Map(8*model.PageSize, ProtRW, DefaultPolicy(), 0, "buf")
	// Fake-populate 8 pages on node 0.
	for i := 0; i < 8; i++ {
		f, err := phys.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		s.PT.Install(PageOf(a)+VPN(i), PTE{Frame: f, Flags: PTEPresent | ProtRW.Flags()})
	}
	if _, _, err := s.Unmap(a+2*model.PageSize, 3*model.PageSize); err != nil {
		t.Fatal(err)
	}
	if s.NumVMAs() != 2 {
		t.Fatalf("vmas = %d, want 2", s.NumVMAs())
	}
	if got := phys.Stats(0).Allocated; got != 5 {
		t.Fatalf("allocated after partial unmap = %d, want 5", got)
	}
	if n := s.ResidentPages(a, a+8*model.PageSize); n != 5 {
		t.Fatalf("resident = %d, want 5", n)
	}
}

// Property: random sequences of Apply on sub-ranges preserve VMA
// invariants and total mapped length.
func TestApplyInvariantsProperty(t *testing.T) {
	const pages = 64
	check := func(ops []uint16) bool {
		s := newSpace()
		base, _ := s.Map(pages*model.PageSize, ProtRW, DefaultPolicy(), 0, "x")
		for _, op := range ops {
			lo := int(op>>8) % pages
			hi := lo + 1 + int(op&0xff)%(pages-lo)
			prot := ProtRW
			if op%3 == 0 {
				prot = ProtNone
			} else if op%3 == 1 {
				prot = ProtRead
			}
			start := base + Addr(lo*model.PageSize)
			end := base + Addr(hi*model.PageSize)
			if err := s.Apply(start, end, func(v *VMA) { v.Prot = prot }); err != nil {
				return false
			}
			if err := s.CheckInvariants(); err != nil {
				return false
			}
		}
		var total int64
		for _, v := range s.VMAs() {
			total += v.Len()
		}
		return total == pages*model.PageSize
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHugeMapAlignment(t *testing.T) {
	s := newSpace()
	a, err := s.Map(3*model.PageSize, ProtRW, DefaultPolicy(), VMAHuge, "huge")
	if err != nil {
		t.Fatal(err)
	}
	if a%model.HugePageSize != 0 {
		t.Fatalf("huge map base %#x not 2MB aligned", a)
	}
	v := s.Find(a)
	if v.Len() != model.HugePageSize {
		t.Fatalf("huge map len = %d, want 2MB", v.Len())
	}
}
