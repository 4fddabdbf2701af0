package kern

import (
	"testing"

	"numamig/internal/model"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Differential tests for the bulk access paths: AccessRange,
// TrafficRectVolume and NodesOfRect count pages per node through one
// census, and every path must charge byte totals identical to a
// per-page Get walk — on a tiered machine, with pages deliberately
// interleaved across DRAM and CXL nodes, and with some of them
// replicated. Page byte counts are whole numbers, so the totals must
// match exactly, not approximately.

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
// page by page through PT.Get and clip each page's overlap.
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

// TestReadReplicatedMatchesPerPageReference: a replicated read goes
// through AccessRange. While the process holds no replica sets it
// charges home nodes like the per-page reference; once every page is
// replicated, every byte is served locally.
func TestReadReplicatedMatchesPerPageReference(t *testing.T) {
	newTieredChargeHarness(t, 32, func(h *harness, tk *Task, addr vm.Addr) {
		// Without replicas the fast path runs: plain home-node charges.
		ref := refBytesByNode(tk, addr, 32*pg)
		wantLoc, wantRem := splitLocal(ref, tk.Node())
		loc0, rem0 := h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes
		if err := tk.AccessRange(addr, 32*pg, Blocked, false); err != nil {
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
		if err := tk.AccessRange(addr, 32*pg, Blocked, false); err != nil {
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

// servedBy is the per-page reference for which node serves tk a read of
// page p: the reader's replica copy, on the node that copy lives on,
// where p has one, else p's primary frame. local reports a read served
// by a copy on the reader's node; ok is false for a page that is not
// resident.
func servedBy(tk *Task, p vm.VPN) (node topology.NodeID, local, ok bool) {
	pte := tk.Proc.Space.PT.Get(p)
	if !pte.Present() {
		return -1, false, false
	}
	if c := tk.Proc.replicas[p]; c != nil && c[tk.Node()] != nil {
		node = c[tk.Node()].Node
		return node, node == tk.Node(), true
	}
	return pte.Frame.Node, false, true
}

// nodeCtrlBytes snapshots the bytes each node's memory controller has
// carried.
func nodeCtrlBytes(h *harness) []float64 {
	out := make([]float64, len(h.k.NodeCtrl))
	for n, l := range h.k.NodeCtrl {
		out[n] = l.Bytes
	}
	return out
}

// checkNodeTraffic checks that each node's controller carried want[n]
// bytes of a Blocked read by tk since before, scaled by the read's
// NUMA and tier penalties. Controllers accumulate in float64, so the
// check is relative, to 1e-12.
func checkNodeTraffic(t *testing.T, h *harness, tk *Task, what string, before []float64, want map[topology.NodeID]float64) {
	t.Helper()
	for n, after := range nodeCtrlBytes(h) {
		node := topology.NodeID(n)
		penalty := 1.0
		if node != tk.Node() {
			penalty = h.k.M.NUMAFactor(tk.Node(), node) * h.k.P.BlockedBoost
		}
		penalty *= h.k.tierLat[node]
		exp, got := want[node]*penalty, after-before[n]
		if d := got - exp; d > 1e-12*exp || d < -1e-12*exp {
			t.Errorf("%s: node %d controller carried %v bytes, reference says %v", what, n, got, exp)
		}
	}
}

// TestCensusServesReplicas: with only some pages of an interleaved
// tiered buffer replicated, a read through AccessRange or TrafficRect
// counts each replicated page on the node of the reader's copy and
// every other page on its home node, clipping AccessRange's partial
// first and last pages on the node serving them; NodesOfRect still
// reports home nodes.
func TestCensusServesReplicas(t *testing.T) {
	const pages = 38
	newTieredChargeHarness(t, pages, func(h *harness, tk *Task, addr vm.Addr) {
		// Pages 1-8 and the last page are replicated; the first is not.
		for _, r := range []struct{ page, n int64 }{{1, 8}, {pages - 1, 1}} {
			if _, err := tk.ReplicateRange(addr+vm.Addr(r.page*pg), r.n*pg); err != nil {
				t.Fatal(err)
			}
		}
		sp := tk.Proc.Space
		base := vm.PageOf(addr)
		lastHome := sp.PT.Get(base + pages - 1).Frame.Node
		if node, local, _ := servedBy(tk, base+pages-1); !local || node == lastHome {
			t.Fatalf("the last page, homed on node %d, is served on node %d; the test needs a remote page a local copy serves", lastHome, node)
		}

		// AccessRange over an unaligned range: partial first and last pages.
		sub, subLen := addr+100, int64(pages*pg-250)
		end := sub + vm.Addr(subLen)
		want := map[topology.NodeID]float64{}
		served := map[topology.NodeID]int{}
		home := map[topology.NodeID]int{}
		var wantReads uint64
		for p := base; p < base+pages; p++ {
			node, local, ok := servedBy(tk, p)
			if !ok {
				t.Fatalf("page %d not resident", p)
			}
			lo, hi := max(p.Base(), sub), min(p.Base()+model.PageSize, end)
			want[node] += float64(hi - lo)
			served[node]++
			home[sp.PT.Get(p).Frame.Node]++
			if local {
				wantReads++
			}
		}
		wantLoc, wantRem := splitLocal(want, tk.Node())
		loc0, rem0, reads0, ctrl := h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes, h.proc.Replicas().LocalReads, nodeCtrlBytes(h)
		if err := tk.AccessRange(sub, subLen, Blocked, false); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Stats.LocalBytes - loc0; got != wantLoc {
			t.Errorf("AccessRange: LocalBytes += %v, reference says %v", got, wantLoc)
		}
		if got := h.k.Stats.RemoteBytes - rem0; got != wantRem {
			t.Errorf("AccessRange: RemoteBytes += %v, reference says %v", got, wantRem)
		}
		if got := h.proc.Replicas().LocalReads - reads0; got != wantReads {
			t.Errorf("AccessRange: LocalReads += %d, reference says %d", got, wantReads)
		}
		checkNodeTraffic(t, h, tk, "AccessRange", ctrl, want)

		// TrafficRect over the same pages splits its volume over the
		// serving nodes in proportion to the pages each serves.
		r := Rect{Base: sub, RowBytes: subLen, Rows: 1}
		volume := float64(r.Bytes())
		want = map[topology.NodeID]float64{}
		for n, c := range served {
			want[n] = volume / pages * float64(c)
		}
		loc0, reads0, ctrl = h.k.Stats.LocalBytes, h.proc.Replicas().LocalReads, nodeCtrlBytes(h)
		tk.TrafficRect(r, Blocked, false)
		if got := h.k.Stats.LocalBytes - loc0; got != want[tk.Node()] {
			t.Errorf("TrafficRect: LocalBytes += %v, reference says %v", got, want[tk.Node()])
		}
		if got := h.proc.Replicas().LocalReads - reads0; got != wantReads {
			t.Errorf("TrafficRect: LocalReads += %d, reference says %d", got, wantReads)
		}
		checkNodeTraffic(t, h, tk, "TrafficRect", ctrl, want)

		// NodesOfRect reports where the pages live, not who serves them.
		gotHome, absent := tk.NodesOfRect(r)
		if absent != 0 || len(gotHome) != len(home) {
			t.Errorf("NodesOfRect = %v with %d absent, reference says %v with 0", gotHome, absent, home)
		}
		for n, c := range home {
			if gotHome[n] != c {
				t.Errorf("NodesOfRect[%d] = %d, reference says %d", n, gotHome[n], c)
			}
		}
	})
}

// TestTierLatencyChargedConsistently: the rect read path charges the
// tier-class latency multiplier exactly like AccessRange, so reading
// the same CXL-resident bytes through either path costs the same
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
		if dRange <= 0 {
			t.Fatal("AccessRange took no virtual time")
		}
		if dRect != dRange {
			t.Errorf("TrafficRect of CXL bytes took %v, AccessRange took %v — tier latency not charged alike", dRect, dRange)
		}
	})
}
