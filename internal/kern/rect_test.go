package kern

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// pages is the per-page reference for the span walk: every page any row
// of the rectangle touches, ascending and deduplicated.
func (r Rect) pages() []vm.VPN {
	if r.empty() {
		return nil
	}
	set := map[vm.VPN]bool{}
	for row := 0; row < r.Rows; row++ {
		start := r.Base + vm.Addr(int64(row)*r.Stride)
		for p := vm.PageOf(start); p <= vm.PageOf(start+vm.Addr(r.RowBytes)-1); p++ {
			set[p] = true
		}
	}
	out := make([]vm.VPN, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// spanPages flattens the span walk into a page list, failing the test
// unless the spans are non-empty, ascending and maximal (a span never
// starts at or before the previous one's end).
func spanPages(t testing.TB, r Rect) []vm.VPN {
	t.Helper()
	var out []vm.VPN
	spans := r.spans()
	prevHi, first := vm.VPN(0), true
	for lo, hi, ok := spans.next(); ok; lo, hi, ok = spans.next() {
		if hi <= lo || (!first && lo <= prevHi) {
			t.Fatalf("%+v: span [%d,%d) after end %d is empty, overlapping or not maximal", r, lo, hi, prevHi)
		}
		for p := lo; p < hi; p++ {
			out = append(out, p)
		}
		prevHi, first = hi, false
	}
	return out
}

// refFaultInRect is the per-page reference for FaultInRect: the page
// list, one VMA lookup and one PTE read per page, the same per-chunk
// batching and SIGSEGV fallback.
func refFaultInRect(t *Task, r Rect, write bool) (int, error) {
	sp := t.Proc.Space
	pages := r.pages()
	if len(pages) == 0 {
		return 0, nil
	}
	serviced := 0
	for round := 0; round < 16; round++ {
		var segvAt vm.Addr
		haveSegv := false
		t.Proc.MmapSem.RLock(t.P)
		for i := 0; i < len(pages) && !haveSegv; {
			ci := vm.ChunkIndex(pages[i])
			j := i
			var nt, numa, absent, stale []vm.VPN
			for ; j < len(pages) && vm.ChunkIndex(pages[j]) == ci; j++ {
				p := pages[j]
				if v := sp.Find(p.Base()); v == nil || !v.Prot.Allows(write) {
					segvAt, haveSegv = p.Base(), true
					break
				}
				pte := sp.PT.Get(p)
				switch {
				case vm.FlagsAllow(pte.Flags, write):
				case pte.Flags&vm.PTEPresent == 0:
					absent = append(absent, p)
				case pte.Flags&vm.PTENextTouch != 0:
					nt = append(nt, p)
				case pte.Flags&vm.PTENumaHint != 0:
					numa = append(numa, p)
				default:
					stale = append(stale, p)
				}
			}
			if haveSegv {
				break
			}
			if len(absent)+len(stale) > 0 {
				serviced += len(absent) + len(stale)
				t.serviceChunk(ci, absent, stale)
			}
			if len(nt) > 0 {
				serviced += len(nt)
				t.ntServiceFaults(nt)
			}
			if len(numa) > 0 {
				serviced += len(numa)
				t.numaServiceFaults(numa)
			}
			i = j
		}
		t.Proc.MmapSem.RUnlock()
		if !haveSegv {
			return serviced, nil
		}
		if err := t.Touch(segvAt, write); err != nil {
			return serviced, err
		}
		serviced++
	}
	return serviced, fmt.Errorf("kern: FaultInRect at %#x did not settle", r.Base)
}

// refNodesOfRect is the per-page reference for NodesOfRect, also
// returning the resident nodes in first-appearance order.
func refNodesOfRect(t *Task, r Rect) (map[topology.NodeID]int, int, []topology.NodeID) {
	counts := map[topology.NodeID]int{}
	var order []topology.NodeID
	absent := 0
	for _, p := range r.pages() {
		pte := t.Proc.Space.PT.Get(p)
		if pte.Flags&vm.PTEPresent == 0 {
			absent++
			continue
		}
		n := topology.NodeID(-1)
		if pte.Frame != nil {
			n = pte.Frame.Node
		}
		if counts[n] == 0 {
			order = append(order, n)
		}
		counts[n]++
	}
	return counts, absent, order
}

// refTrafficRectVolume is the per-page reference for TrafficRectVolume;
// it returns the resident nodes in charge order and their page counts.
func refTrafficRectVolume(t *Task, r Rect, volume float64, kind AccessKind) ([]topology.NodeID, map[topology.NodeID]int) {
	counts, _, order := refNodesOfRect(t, r)
	resident := 0
	for _, c := range counts {
		resident += c
	}
	if resident > 0 && volume > 0 {
		perPage := volume / float64(resident)
		for _, node := range order {
			t.chargeNodeTraffic(node, perPage*float64(counts[node]), kind)
		}
	}
	return order, counts
}

func TestRectPagesDedup(t *testing.T) {
	// 2KB rows with 8KB stride starting mid-page: rows share no pages.
	r := Rect{Base: 0x10000, RowBytes: 2048, Stride: 8192, Rows: 4}
	pages := r.pages()
	if len(pages) != 4 {
		t.Fatalf("pages = %v", pages)
	}
	// 2KB rows, 2KB stride: fully contiguous, rows share pages.
	r2 := Rect{Base: 0x10000, RowBytes: 2048, Stride: 2048, Rows: 4}
	if got := len(r2.pages()); got != 2 {
		t.Fatalf("contiguous rect pages = %d, want 2", got)
	}
	// Empty rect.
	if len((Rect{}).pages()) != 0 {
		t.Fatal("empty rect has pages")
	}
	if (Rect{RowBytes: 100, Rows: 3}).Bytes() != 300 {
		t.Fatal("Bytes wrong")
	}
	for _, r := range []Rect{r, r2, {}} {
		if got, want := spanPages(t, r), r.pages(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: span walk %v, reference %v", r, got, want)
		}
	}
	// One span per merged run of rows: the contiguous rect is one span.
	spans := r2.spans()
	if lo, hi, _ := spans.next(); lo != vm.PageOf(0x10000) || hi != lo+2 {
		t.Fatalf("contiguous rect span = [%d,%d)", lo, hi)
	}
	if _, _, ok := spans.next(); ok {
		t.Fatal("contiguous rect yields a second span")
	}
}

// TestRectNegativeStride pins the descending-row rectangle to its
// ascending twin: same pages, same placement census, same traffic.
func TestRectNegativeStride(t *testing.T) {
	neg := Rect{Base: 0x100000 + 3*8192, RowBytes: 2048, Stride: -8192, Rows: 4}
	want := []vm.VPN{256, 258, 260, 262}
	if got := spanPages(t, neg); !reflect.DeepEqual(got, want) {
		t.Fatalf("negative-stride span walk = %v, want %v", got, want)
	}
	if got := neg.pages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("negative-stride reference = %v, want %v", got, want)
	}

	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(64*16384, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "m")
		pos := Rect{Base: a + 4096 + 100, RowBytes: 6000, Stride: 5 * pg, Rows: 48}
		neg := Rect{Base: pos.Base + 47*5*pg, RowBytes: 6000, Stride: -5 * pg, Rows: 48}
		if !reflect.DeepEqual(spanPages(t, neg), spanPages(t, pos)) {
			t.Fatal("negative-stride rect covers different pages than its twin")
		}
		if _, err := tk.FaultInRect(neg, true); err != nil {
			t.Fatal(err)
		}
		if n, err := tk.FaultInRect(pos, true); err != nil || n != 0 {
			t.Fatalf("twin left %d pages unserviced (err %v)", n, err)
		}
		pc, pa := tk.NodesOfRect(pos)
		nc, na := tk.NodesOfRect(neg)
		if pa != 0 || na != 0 || !reflect.DeepEqual(pc, nc) || len(pc) != 4 {
			t.Fatalf("NodesOfRect: twin %v/%d, negative %v/%d", pc, pa, nc, na)
		}
		traffic := func(r Rect) (sim.Time, float64, float64) {
			t0, l0, r0 := tk.P.Now(), h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes
			tk.TrafficRect(r, Blocked, false)
			return tk.P.Now() - t0, h.k.Stats.LocalBytes - l0, h.k.Stats.RemoteBytes - r0
		}
		pt, pl, pr := traffic(pos)
		nt, nl, nr := traffic(neg)
		if pt != nt || pl != nl || pr != nr || pt == 0 {
			t.Fatalf("traffic: twin %v/%v/%v, negative %v/%v/%v", pt, pl, pr, nt, nl, nr)
		}
	})
}

func TestFaultInRectDemandAndNT(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		// 16 rows of 2KB with 16KB stride (like a 512-col block in a
		// 4096-col float matrix).
		a, _ := tk.Mmap(16*16384, vm.ProtRW, vm.Bind(0), 0, "m")
		r := Rect{Base: a, RowBytes: 2048, Stride: 16384, Rows: 16}
		n, err := tk.FaultInRect(r, true)
		if err != nil {
			t.Fatal(err)
		}
		if n != 16 {
			t.Fatalf("serviced = %d, want 16", n)
		}
		// All pages of the rect on node 0.
		counts, absent := tk.NodesOfRect(r)
		if absent != 0 || counts[0] != 16 {
			t.Fatalf("counts = %v absent = %d", counts, absent)
		}
		// Mark NT, touch from another node: only rect pages migrate.
		if _, err := tk.Madvise(a, 16*16384, AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(13) // node 3
		if _, err := tk.FaultInRect(r, false); err != nil {
			t.Fatal(err)
		}
		counts, _ = tk.NodesOfRect(r)
		if counts[3] != 16 {
			t.Fatalf("after NT: %v", counts)
		}
	})
	if h.k.Stats.NTMigrations != 16 {
		t.Fatalf("nt migrations = %d", h.k.Stats.NTMigrations)
	}
}

func TestAccessRectTrafficSplitsByNode(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(64*pg, vm.ProtRW, vm.Interleave(0, 1), 0, "m")
		r := Rect{Base: a, RowBytes: 64 * pg, Stride: 64 * pg, Rows: 1}
		if err := tk.AccessRect(r, Stream, false); err != nil {
			t.Fatal(err)
		}
	})
	if h.k.Stats.LocalBytes != 32*pg || h.k.Stats.RemoteBytes != 32*pg {
		t.Fatalf("local=%v remote=%v", h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes)
	}
}

func TestAccessRectUserNTSegvPath(t *testing.T) {
	h := newHarness(false)
	repaired := false
	h.proc.OnSegv(func(tk *Task, info SigInfo) {
		repaired = true
		if err := tk.Mprotect(vm.PageFloor(info.Addr), 64*pg, vm.ProtRW); err != nil {
			t.Error(err)
		}
	})
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(64*pg, vm.ProtRW, vm.Bind(0), 0, "m")
		if _, err := tk.FaultIn(a, 64*pg, true); err != nil {
			t.Fatal(err)
		}
		if err := tk.Mprotect(a, 64*pg, vm.ProtNone); err != nil {
			t.Fatal(err)
		}
		r := Rect{Base: a, RowBytes: 4096, Stride: 4096, Rows: 64}
		if _, err := tk.FaultInRect(r, false); err != nil {
			t.Fatal(err)
		}
	})
	if !repaired {
		t.Fatal("segv handler never ran through rect path")
	}
}

// TestFaultInRectDidNotSettle: a handler that repairs one page per
// signal cannot settle a protected region of more than 16 pages, and
// both bulk fault paths must say so rather than report success.
func TestFaultInRectDidNotSettle(t *testing.T) {
	h := newHarness(false)
	signals := 0
	h.proc.OnSegv(func(tk *Task, info SigInfo) {
		signals++
		if err := tk.Mprotect(vm.PageFloor(info.Addr), pg, vm.ProtRW); err != nil {
			t.Error(err)
		}
	})
	h.run(t, 0, func(tk *Task) {
		protected := func() vm.Addr {
			a, _ := tk.Mmap(32*pg, vm.ProtRW, vm.Bind(0), 0, "m")
			if _, err := tk.FaultIn(a, 32*pg, true); err != nil {
				t.Fatal(err)
			}
			if err := tk.Mprotect(a, 32*pg, vm.ProtNone); err != nil {
				t.Fatal(err)
			}
			return a
		}
		a := protected()
		if _, err := tk.FaultInRect(Rect{Base: a, RowBytes: 2048, Stride: pg, Rows: 32}, false); err == nil {
			t.Error("FaultInRect over 32 one-page-per-signal pages settled")
		}
		if _, err := tk.FaultIn(protected(), 32*pg, false); err == nil {
			t.Error("FaultIn over 32 one-page-per-signal pages settled")
		}
	})
	if signals != 32 {
		t.Fatalf("signals = %d, want 16 per path", signals)
	}
}

// luRect maps an LU-shaped operand — a 4-node interleaved matrix, one
// block of 2 KiB rows at a 32 KiB stride spanning two page-table
// chunks — and returns the block.
func luRect(tk *Task) Rect {
	const rows, stride = 128, 32 << 10
	a, _ := tk.Mmap(rows*stride, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "lu")
	return Rect{Base: a + 4096, RowBytes: 2048, Stride: stride, Rows: rows}
}

// TestRectWalkAllocs guards the steady-state rect path against
// allocation: the traffic walk and a fault walk with nothing to service
// run from the cursor, the span iterator and task scratch alone.
func TestRectWalkAllocs(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		r := luRect(tk)
		if n, err := tk.FaultInRect(r, true); err != nil || n != r.Rows {
			t.Fatalf("serviced %d (err %v), want %d", n, err, r.Rows)
		}
		tk.TrafficRect(r, Blocked, false) // size the scratch buffers
		// Zero volume walks and counts the whole rect but skips the
		// fluid-network transfer, whose job records are the sim layer's.
		if a := testing.AllocsPerRun(20, func() { tk.TrafficRectVolume(r, 0, Blocked, false) }); a != 0 {
			t.Errorf("TrafficRectVolume allocates %v times per call", a)
		}
		if a := testing.AllocsPerRun(20, func() {
			if n, err := tk.FaultInRect(r, true); err != nil || n != 0 {
				t.Errorf("resident rect serviced %d (err %v)", n, err)
			}
		}); a != 0 {
			t.Errorf("FaultInRect with nothing to service allocates %v times per call", a)
		}
	})
}

// TestRectWalkStaysCompact pins the rect paths to the data-driven chunk
// encoding: the LU block faults at most 64 one-page runs into a chunk,
// which stays compact, and charging or censusing it never changes an
// encoding; a block twice as dense in one chunk flattens it.
func TestRectWalkStaysCompact(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		pt := tk.Proc.Space.PT
		r := luRect(tk)
		if err := tk.AccessRect(r, Blocked, true); err != nil {
			t.Fatal(err)
		}
		tk.TrafficRect(r, Stream, false)
		tk.NodesOfRect(r)
		if pt.NumChunks() < 2 || pt.DenseChunks() != 0 {
			t.Fatalf("%d of %d chunks flat after the LU rect walk", pt.DenseChunks(), pt.NumChunks())
		}
		a, _ := tk.Mmap(256*4*pg, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "dense")
		if err := tk.AccessRect(Rect{Base: a, RowBytes: 2048, Stride: 4 * pg, Rows: 256}, Blocked, true); err != nil {
			t.Fatal(err)
		}
		if pt.DenseChunks() == 0 {
			t.Fatal("~128 one-page runs per chunk left every chunk compact")
		}
	})
}
