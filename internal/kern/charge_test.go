package kern

import (
	"testing"

	"numamig/internal/model"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Differential tests for the extent-based bulk access paths: AccessRange,
// TrafficRectVolume, ReadReplicated and NodesOfRect accumulate per-node
// traffic extent-run-at-a-time, and every path must charge byte totals
// identical to a per-page Get walk — on a tiered machine, with pages
// deliberately interleaved across DRAM and CXL nodes. Page byte counts
// are whole numbers, so the totals must match exactly, not approximately.

// newTieredChargeHarness builds a 4-node machine whose upper two nodes
// are a CXL tier, with an interleaved region of pages pages faulted in.
func newTieredChargeHarness(t *testing.T, pages int64, run func(h *harness, tk *Task, addr vm.Addr)) {
	t.Helper()
	p := model.Default()
	p.NodeTier = []int{0, 0, 1, 1}
	p.TierClasses = []model.TierClass{{Name: "dram"}, model.CXLTier()}
	h := newParamHarness(4, 4096, p)
	h.run(t, 0, func(tk *Task) {
		addr, err := tk.Mmap(pages*pg, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(addr, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		run(h, tk, addr)
	})
}

// refBytesByNode is the per-page reference: walk [addr, addr+length)
// page by page through PT.Get and clip each page's overlap, exactly
// what AccessRange did before the extent walk.
func refBytesByNode(tk *Task, addr vm.Addr, length int64) map[topology.NodeID]float64 {
	sp := tk.Proc.Space
	end := addr + vm.Addr(length)
	out := map[topology.NodeID]float64{}
	for p := vm.PageOf(addr); p < vm.PageOf(end-1)+1; p++ {
		pte := sp.PT.Get(p)
		if !pte.Present() {
			continue
		}
		lo, hi := p.Base(), p.Base()+model.PageSize
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		out[pte.Frame.Node] += float64(hi - lo)
	}
	return out
}

// splitLocal sums a per-node byte map into (local, remote) totals.
func splitLocal(m map[topology.NodeID]float64, local topology.NodeID) (loc, rem float64) {
	for n, b := range m {
		if n == local {
			loc += b
		} else {
			rem += b
		}
	}
	return loc, rem
}

func TestAccessRangeMatchesPerPageReference(t *testing.T) {
	newTieredChargeHarness(t, 37, func(h *harness, tk *Task, addr vm.Addr) {
		// Unaligned sub-range: partial first and last pages.
		sub, subLen := addr+100, int64(35*pg-250)
		ref := refBytesByNode(tk, sub, subLen)
		wantLoc, wantRem := splitLocal(ref, tk.Node())
		loc0, rem0 := h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes
		if err := tk.AccessRange(sub, subLen, Blocked, false); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Stats.LocalBytes - loc0; got != wantLoc {
			t.Errorf("LocalBytes += %v, per-page reference says %v", got, wantLoc)
		}
		if got := h.k.Stats.RemoteBytes - rem0; got != wantRem {
			t.Errorf("RemoteBytes += %v, per-page reference says %v", got, wantRem)
		}
	})
}

func TestTrafficRectMatchesPerPageReference(t *testing.T) {
	newTieredChargeHarness(t, 64, func(h *harness, tk *Task, addr vm.Addr) {
		// Overlapping rows (stride < row bytes) exercise the page-list
		// dedup; the unaligned base exercises partial-page rows.
		r := Rect{Base: addr + 100, RowBytes: 3*pg + 700, Stride: 2 * pg, Rows: 7}
		// Per-page reference: dedup the rect's pages, count residents
		// per node, then split the volume proportionally.
		sp := tk.Proc.Space
		counts := map[topology.NodeID]int{}
		resident := 0
		for _, p := range r.pages() {
			pte := sp.PT.Get(p)
			if !pte.Present() {
				continue
			}
			counts[pte.Frame.Node]++
			resident++
		}
		if resident == 0 {
			t.Fatal("rect has no resident pages")
		}
		volume := float64(r.Bytes())
		ref := map[topology.NodeID]float64{}
		for n, c := range counts {
			ref[n] = volume / float64(resident) * float64(c)
		}
		wantLoc, wantRem := splitLocal(ref, tk.Node())
		loc0, rem0 := h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes
		tk.TrafficRect(r, Blocked, false)
		if got := h.k.Stats.LocalBytes - loc0; got != wantLoc {
			t.Errorf("LocalBytes += %v, per-page reference says %v", got, wantLoc)
		}
		if got := h.k.Stats.RemoteBytes - rem0; got != wantRem {
			t.Errorf("RemoteBytes += %v, per-page reference says %v", got, wantRem)
		}

		// NodesOfRect must agree with the same per-page census.
		gotCounts, absent := tk.NodesOfRect(r)
		if absent != len(r.pages())-resident {
			t.Errorf("NodesOfRect absent = %d, reference says %d", absent, len(r.pages())-resident)
		}
		if len(gotCounts) != len(counts) {
			t.Errorf("NodesOfRect nodes = %v, reference says %v", gotCounts, counts)
		}
		for n, c := range counts {
			if gotCounts[n] != c {
				t.Errorf("NodesOfRect[%d] = %d, reference says %d", n, gotCounts[n], c)
			}
		}
	})
}

func TestReadReplicatedMatchesPerPageReference(t *testing.T) {
	newTieredChargeHarness(t, 32, func(h *harness, tk *Task, addr vm.Addr) {
		// Without replicas the fast path runs: plain home-node charges.
		ref := refBytesByNode(tk, addr, 32*pg)
		wantLoc, wantRem := splitLocal(ref, tk.Node())
		loc0, rem0 := h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes
		if err := tk.ReadReplicated(addr, 32*pg, Blocked); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Stats.LocalBytes - loc0; got != wantLoc {
			t.Errorf("no replicas: LocalBytes += %v, reference says %v", got, wantLoc)
		}
		if got := h.k.Stats.RemoteBytes - rem0; got != wantRem {
			t.Errorf("no replicas: RemoteBytes += %v, reference says %v", got, wantRem)
		}

		// With every page replicated, all reads serve locally.
		if _, err := tk.ReplicateRange(addr, 32*pg); err != nil {
			t.Fatal(err)
		}
		loc0, rem0 = h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes
		if err := tk.ReadReplicated(addr, 32*pg, Blocked); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Stats.LocalBytes - loc0; got != float64(32*pg) {
			t.Errorf("replicated: LocalBytes += %v, want %v", got, float64(32*pg))
		}
		if got := h.k.Stats.RemoteBytes - rem0; got != 0 {
			t.Errorf("replicated: RemoteBytes += %v, want 0", got)
		}
	})
}

// TestTierLatencyChargedConsistently pins the satellite's behavioural
// fix: the rect and replicated read paths now charge the tier-class
// latency multiplier exactly like AccessRange, so reading the same
// CXL-resident bytes through any of the three paths costs the same
// virtual time.
func TestTierLatencyChargedConsistently(t *testing.T) {
	p := model.Default()
	p.NodeTier = []int{0, 1}
	p.TierClasses = []model.TierClass{{Name: "dram"}, model.CXLTier()}
	h := newParamHarness(2, 4096, p)
	h.run(t, 0, func(tk *Task) {
		// All pages bound to the CXL node; the reader runs on node 0.
		addr, err := tk.Mmap(16*pg, vm.ProtRW, vm.Bind(1), 0, "cxl")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(addr, 16*pg, true); err != nil {
			t.Fatal(err)
		}
		elapsed := func(fn func()) float64 {
			t0 := h.eng.Now()
			fn()
			return float64(h.eng.Now() - t0)
		}
		dRange := elapsed(func() {
			if err := tk.AccessRange(addr, 16*pg, Blocked, false); err != nil {
				t.Fatal(err)
			}
		})
		dRect := elapsed(func() {
			tk.TrafficRect(Rect{Base: addr, RowBytes: 16 * pg, Stride: 16 * pg, Rows: 1}, Blocked, false)
		})
		dRepl := elapsed(func() {
			if err := tk.ReadReplicated(addr, 16*pg, Blocked); err != nil {
				t.Fatal(err)
			}
		})
		if dRange <= 0 {
			t.Fatal("AccessRange took no virtual time")
		}
		if dRect != dRange {
			t.Errorf("TrafficRect of CXL bytes took %v, AccessRange took %v — tier latency not charged alike", dRect, dRange)
		}
		if dRepl != dRange {
			t.Errorf("ReadReplicated of CXL bytes took %v, AccessRange took %v — tier latency not charged alike", dRepl, dRange)
		}
	})
}
