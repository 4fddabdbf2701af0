package kern

import (
	"testing"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Explicit slow-tier tests: the promotion token bucket
// (Params.PromoteRateLimitMBps) and first-touch placement on a tiered
// machine.

// newParamHarness is newSmallHarness with caller-supplied Params.
func newParamHarness(nodes, framesPerNode int, p model.Params) *harness {
	eng := sim.NewEngine(7)
	m := topology.Grid(nodes, 1, int64(framesPerNode)*pg, 1<<20)
	k := New(eng, m, p, false)
	return &harness{eng: eng, k: k, proc: k.NewProcess("test")}
}

// TestPromoteRateLimitTokenBucket pins the bucket arithmetic: a
// slow-tier source starts with one KswapdPeriod's burst (at least one
// page), runs dry, counts the drop, and refills with virtual time.
// Fast-tier sources are never limited.
func TestPromoteRateLimitTokenBucket(t *testing.T) {
	p := model.Default()
	p.NodeTier = []int{0, 1}
	p.TierClasses = []model.TierClass{{}, model.CXLTier()}
	p.PromoteRateLimitMBps = 1 // 1 MB/s: one 4 KiB page per 4 ms
	h := newParamHarness(2, 256, p)
	h.run(t, 0, func(tk *Task) {
		k := h.k
		if !k.AllowSlowPromotion(1) {
			t.Error("initial burst (>= one page) should allow the first promotion")
		}
		if k.AllowSlowPromotion(1) {
			t.Error("bucket should be dry after one page at 1 MBps")
		}
		if k.Stats.PromoteRateLimited != 1 {
			t.Errorf("PromoteRateLimited = %d, want 1", k.Stats.PromoteRateLimited)
		}
		// Fast-tier source: unlimited, and never consumes tokens.
		for i := 0; i < 8; i++ {
			if !k.AllowSlowPromotion(0) {
				t.Error("fast-tier promotion was rate-limited")
			}
		}
		// 8 ms at 1 MB/s refills two pages' worth (capped at the
		// one-period burst, which is one page here).
		tk.P.Sleep(sim.Micros(8000))
		if !k.AllowSlowPromotion(1) {
			t.Error("bucket did not refill with virtual time")
		}
		if k.AllowSlowPromotion(1) {
			t.Error("refill exceeded the one-period burst cap")
		}
	})
	if h.k.Stats.PromoteRateLimited != 2 {
		t.Fatalf("PromoteRateLimited = %d, want 2", h.k.Stats.PromoteRateLimited)
	}
}

// TestFirstTouchNeverLandsOnSlowTier: faulting threads on a DRAM+CXL
// machine fill the whole DRAM tier and the walk still refuses the CXL
// node — the spill crosses DRAM nodes and then fails over the
// watermark passes, never onto the slow tier.
func TestFirstTouchNeverLandsOnSlowTier(t *testing.T) {
	p := model.Default()
	p.NodeTier = []int{0, 0, 1}
	p.TierClasses = []model.TierClass{{}, model.CXLTier()}
	h := newParamHarness(3, 256, p)
	h.run(t, 0, func(tk *Task) {
		// 400 pages under a default (first-touch) policy: node 0 fills
		// to its watermarks, the rest spills to node 1 — node 2 (CXL)
		// must stay empty.
		buf, err := tk.Mmap(400*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(buf, 400*pg, true); err != nil {
			t.Fatal(err)
		}
		hist := map[int]int{}
		for _, n := range tk.GetNodes(buf, 400*pg) {
			hist[n]++
		}
		if hist[2] != 0 {
			t.Fatalf("first-touch landed %d pages on the CXL node: hist=%v", hist[2], hist)
		}
		if hist[1] == 0 {
			t.Fatalf("expected spill onto the second DRAM node: hist=%v", hist)
		}
	})
	if got := h.k.Phys.SlowTierResident(); got != 0 {
		t.Fatalf("SlowTierResident = %d, want 0", got)
	}
}
