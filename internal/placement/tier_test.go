package placement

import (
	"testing"
	"testing/quick"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Tier tests: slow-memory (CXL) nodes are demotion-only allocation
// targets, zonelists order by (tier, distance), and DemotionTarget
// prefers the next tier down.

// newTieredPlacer builds a placer over fast DRAM nodes plus slow CXL
// nodes (appended ids), framesPerNode frames each.
func newTieredPlacer(fast, slow, framesPerNode int) (*Placer, *mem.Phys) {
	nodes := fast + slow
	m := topology.Grid(nodes, 1, int64(framesPerNode)*model.PageSize, 1<<20)
	phys := mem.NewPhys(m, false)
	p := model.Default()
	p.TierClasses = []model.TierClass{{Name: "dram"}, model.CXLTier()}
	p.NodeTier = make([]int, nodes)
	for n := fast; n < nodes; n++ {
		p.NodeTier[n] = 1
	}
	return New(m, phys, &p), phys
}

func TestTieredZonelistOrder(t *testing.T) {
	// Square topology 0-1, 0-2, 1-3, 2-3; nodes 2 and 3 are CXL.
	pl, _ := newTieredPlacer(2, 2, 64)
	// From a DRAM node: self, the DRAM tier, then CXL by distance.
	got := pl.Zonelist(0)
	want := []topology.NodeID{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zonelist(0) = %v, want %v", got, want)
		}
	}
	// From CXL node 2: itself first (an explicit target lands there),
	// then the *far* DRAM node 1 (distance 14) still before the
	// directly-linked CXL sibling 3 (distance 12) — tier beats
	// distance, which is the whole point of the (tier, distance) key.
	got = pl.Zonelist(2)
	want = []topology.NodeID{2, 0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zonelist(2) = %v, want %v", got, want)
		}
	}
}

// TestSlowTierAllocationProperty is the acceptance property: no
// first-touch or mempolicy allocation ever resolves to (or lands on) a
// slow-tier node unless the policy's nodemask contains only slow
// nodes — whatever the policy kind, node subset, page index, faulting
// node, and DRAM fill level.
func TestSlowTierAllocationProperty(t *testing.T) {
	const fast, slow = 2, 2 // nodes 2,3 are CXL
	check := func(kindSel, maskBits, vpnSel, localSel uint8, drain bool) bool {
		pl, phys := newTieredPlacer(fast, slow, 64)
		if drain {
			// Empty the DRAM tier below its watermarks so the walk is
			// pushed through every pass.
			for n := 0; n < fast; n++ {
				for i := 0; i < 62; i++ {
					if _, err := phys.Alloc(topology.NodeID(n)); err != nil {
						return false
					}
				}
			}
		}
		var nodes []topology.NodeID
		for b := 0; b < fast+slow; b++ {
			if maskBits&(1<<b) != 0 {
				nodes = append(nodes, topology.NodeID(b))
			}
		}
		kinds := []vm.PolicyKind{vm.PolDefault, vm.PolBind, vm.PolInterleave,
			vm.PolPreferred, vm.PolWeightedInterleave}
		pol := vm.Policy{Kind: kinds[int(kindSel)%len(kinds)], Nodes: nodes}
		allSlow := len(nodes) > 0
		for _, n := range nodes {
			if int(n) < fast {
				allSlow = false
			}
		}
		if pol.Kind == vm.PolDefault {
			pol.Nodes = nil
			allSlow = false
		}
		local := topology.NodeID(int(localSel) % fast)
		target := pl.Target(pol, vm.VPN(vpnSel), local)
		if !allSlow && pl.TierOf(target) > 0 {
			return false
		}
		f := pl.AllocPage(target)
		if f == nil {
			// Acceptable only when every allowed node is full.
			return drain && !allSlow
		}
		return allSlow || pl.TierOf(f.Node) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocPolicyDropsSlowFromMixedMask(t *testing.T) {
	pl, _ := newTieredPlacer(2, 2, 64)
	// Interleave over a mixed mask: the slow nodes vanish, the spread
	// covers only the DRAM part.
	il := vm.Interleave(0, 1, 2, 3)
	counts := map[topology.NodeID]int{}
	for v := vm.VPN(0); v < 100; v++ {
		counts[pl.Target(il, v, 0)]++
	}
	if counts[0] != 50 || counts[1] != 50 || counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("mixed-mask interleave spread = %v, want all on DRAM", counts)
	}
	// All-slow mask: the explicit CXL binding stands.
	bind := vm.Bind(2, 3)
	if n := pl.Target(bind, 1, 0); pl.TierOf(n) == 0 {
		t.Fatalf("all-slow bind resolved to DRAM node %d", n)
	}
	// Weighted interleave keeps weights parallel after the drop.
	wil := vm.WeightedInterleave([]topology.NodeID{0, 2, 1}, []int{1, 7, 3})
	counts = map[topology.NodeID]int{}
	for v := vm.VPN(0); v < 400; v++ {
		counts[pl.Target(wil, v, 0)]++
	}
	if counts[2] != 0 || counts[0] != 100 || counts[1] != 300 {
		t.Fatalf("weighted spread after slow drop = %v, want 0:100 1:300", counts)
	}
}

func TestDemotionTargetNextTierDown(t *testing.T) {
	pl, phys := newTieredPlacer(2, 2, 64) // DRAM 0,1; CXL 2,3
	// From DRAM: both temperatures land on the CXL tier even though
	// the sibling DRAM node is free.
	for _, cold := range []bool{false, true} {
		n, ok := pl.DemotionTarget(0, cold)
		if !ok || pl.TierOf(n) != 1 {
			t.Fatalf("DemotionTarget(0, cold=%v) = %d,%v; want a CXL node", cold, n, ok)
		}
	}
	// From CXL: within-tier only — the sibling expander, never back up
	// to DRAM.
	n, ok := pl.DemotionTarget(2, true)
	if !ok || n != 3 {
		t.Fatalf("DemotionTarget(2) = %d,%v; want the sibling CXL node 3", n, ok)
	}
	// Sibling pressured: a slow node with nowhere within-tier reports
	// no target rather than promoting by demotion.
	for phys.FreeFrames(3) > phys.WatermarksOf(3).Low {
		if _, err := phys.Alloc(3); err != nil {
			t.Fatal(err)
		}
	}
	if n, ok := pl.DemotionTarget(2, true); ok {
		t.Fatalf("DemotionTarget(2) = %d with the whole slow tier pressured; want none", n)
	}
}

func TestSlowTierResidentGauge(t *testing.T) {
	_, phys := newTieredPlacer(2, 1, 64) // node 2 = CXL
	if phys.TierOf(0) != 0 || phys.TierOf(2) != 1 {
		t.Fatalf("tier map not installed: %d %d", phys.TierOf(0), phys.TierOf(2))
	}
	if phys.SlowTierResident() != 0 {
		t.Fatal("empty machine reports slow-tier residency")
	}
	for i := 0; i < 5; i++ {
		if _, err := phys.Alloc(2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := phys.Alloc(0); err != nil {
		t.Fatal(err)
	}
	if got := phys.SlowTierResident(); got != 5 {
		t.Fatalf("SlowTierResident = %d, want 5", got)
	}
}
