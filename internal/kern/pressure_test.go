package kern

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// newSmallHarness builds a kernel over a machine with framesPerNode
// 4 KiB frames per node (1 core per node), so exhaustion and watermark
// behaviour are reachable with small buffers.
func newSmallHarness(nodes, framesPerNode int) *harness {
	eng := sim.NewEngine(7)
	m := topology.Grid(nodes, 1, int64(framesPerNode)*pg, 1<<20)
	k := New(eng, m, model.Default(), false)
	return &harness{eng: eng, k: k, proc: k.NewProcess("test")}
}

// TestMovePagesToFullNodeFallsBack: move_pages toward a node at its
// watermarks must not fail — the placement layer lands the overflow on
// the fallback node and the status array reports where each page
// actually went. ErrNoMemory never surfaces through the syscall.
func TestMovePagesToFullNodeFallsBack(t *testing.T) {
	h := newSmallHarness(2, 256) // low watermark: 12 frames
	h.run(t, 0, func(tk *Task) {
		// Fill node 1 to 26 free frames.
		filler, err := tk.Mmap(230*pg, vm.ProtRW, vm.Bind(1), 0, "filler")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(filler, 230*pg, true); err != nil {
			t.Fatal(err)
		}
		buf, err := tk.Mmap(64*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(buf, 64*pg, true); err != nil {
			t.Fatal(err)
		}
		status, err := tk.MovePagesTo(buf, 64*pg, 1, true)
		if err != nil {
			t.Fatalf("move_pages to a nearly-full node failed: %v", err)
		}
		on1, on0 := 0, 0
		for i, s := range status {
			switch s {
			case 1:
				on1++
			case 0:
				on0++
			default:
				t.Fatalf("status[%d] = %d, want a node id", i, s)
			}
		}
		// Node 1 can take frames down to its low watermark (26 free,
		// low 12): exactly 14 land there, the rest fall back to node 0.
		if on1 != 14 || on0 != 50 {
			t.Fatalf("placement split = %d on node 1, %d on node 0; want 14/50", on1, on0)
		}
		// Every page still present and accessible.
		for _, n := range tk.GetNodes(buf, 64*pg) {
			if n < 0 {
				t.Fatal("move_pages to a full node lost a page")
			}
		}
	})
}

// TestMbindMoveToFullNode: mbind(MPOL_MF_MOVE) toward a pressured node
// succeeds best-effort for the same reason.
func TestMbindMoveToFullNode(t *testing.T) {
	h := newSmallHarness(2, 256)
	h.run(t, 0, func(tk *Task) {
		filler, err := tk.Mmap(240*pg, vm.ProtRW, vm.Bind(1), 0, "filler")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(filler, 240*pg, true); err != nil {
			t.Fatal(err)
		}
		buf, err := tk.Mmap(32*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(buf, 32*pg, true); err != nil {
			t.Fatal(err)
		}
		if err := tk.Mbind(buf, 32*pg, vm.Bind(1), MbindMove); err != nil {
			t.Fatalf("mbind(MOVE) to a nearly-full node failed: %v", err)
		}
		present := 0
		for _, n := range tk.GetNodes(buf, 32*pg) {
			if n >= 0 {
				present++
			}
		}
		if present != 32 {
			t.Fatalf("mbind lost pages: %d of 32 present", present)
		}
	})
}

// TestMachineExhaustion: when the whole machine is out of frames the
// kernel panics in the allocator and the engine surfaces it as a run
// error (not a hang and not silent corruption).
func TestMachineExhaustion(t *testing.T) {
	h := newSmallHarness(2, 64)
	a, err2 := h.proc.Space.Map(200*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "too-big")
	if err2 != nil {
		t.Fatal(err2)
	}
	h.proc.Spawn("t0", 0, func(tk *Task) {
		_, _ = tk.FaultIn(a, 200*pg, true)
	})
	err := h.eng.Run()
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("exhausting the machine returned %v, want an out-of-memory panic", err)
	}
}

// TestHugeExhaustionFallsBackToBasePages: a huge fault that cannot
// find 512 contiguous frames on any node is served with base pages
// (the chunk stays a 4 KiB chunk), and huge-page migration reports the
// fallback chunk -ENOENT.
func TestHugeExhaustionFallsBackToBasePages(t *testing.T) {
	h := newSmallHarness(2, 768)
	h.run(t, 0, func(tk *Task) {
		a, err := tk.MmapHuge(3*model.HugePageSize, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		n, err := tk.TouchHuge(a, 3*model.HugePageSize)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("TouchHuge faulted %d units, want 3", n)
		}
		// Units 1 and 2 are real huge pages on separate nodes; unit 3
		// found no contiguous room anywhere (256 free per node).
		if tk.HugeNode(a) < 0 || tk.HugeNode(a+model.HugePageSize) < 0 {
			t.Fatal("first two units should be huge-mapped")
		}
		third := a + 2*model.HugePageSize
		if got := tk.HugeNode(third); got != -1 {
			t.Fatalf("third unit huge-mapped on node %d, want 4 KiB fallback", got)
		}
		if got := h.k.Stats.HugeFallbacks; got != 1 {
			t.Fatalf("huge fallbacks = %d, want 1", got)
		}
		// All 512 base pages of the fallback chunk are present, spread
		// over both nodes' remaining frames.
		hist := map[int]int{}
		for _, nd := range tk.GetNodes(third, model.HugePageSize) {
			hist[nd]++
		}
		if hist[-1] != 0 || hist[0]+hist[1] != 512 {
			t.Fatalf("fallback chunk histogram = %v, want 512 present pages", hist)
		}
		if hist[0] == 0 || hist[1] == 0 {
			t.Fatalf("fallback pages should spread over both nodes: %v", hist)
		}
		// Touching the fallback range again allocates nothing new.
		allocs := h.k.Stats.DemandAllocs
		if _, err := tk.TouchHuge(third, model.HugePageSize); err != nil {
			t.Fatal(err)
		}
		if h.k.Stats.DemandAllocs != allocs {
			t.Fatal("re-touch of the fallback chunk re-allocated pages")
		}
		// Huge migration of the fallback chunk: -ENOENT, pages stay put.
		moved, status, err := tk.MoveHugeRange(third, model.HugePageSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 0 || status[0] != StatusNoEnt {
			t.Fatalf("fallback chunk migrated as huge: moved=%d status=%v", moved, status)
		}
	})
}

// TestTouchHugeKeepsFallbackSurvivors: an exhaustion fallback is a PTE
// page of base pages, and TouchHuge must not map a 2 MiB unit over
// what an unmap left of it: the unit would hide the surviving base
// pages, and the final munmap would leave their 256 frames allocated.
func TestTouchHugeKeepsFallbackSurvivors(t *testing.T) {
	h := newSmallHarness(2, 768)
	h.run(t, 0, func(tk *Task) {
		const unit = model.HugePageSize
		a, err := tk.MmapHuge(3*unit, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, 3*unit); err != nil {
			t.Fatal(err)
		}
		third := a + 2*unit
		if tk.HugeNode(third) != -1 || h.k.Stats.HugeFallbacks != 1 {
			t.Fatal("the third unit should fall back to base pages")
		}
		// Free the first unit, so a node has room for a whole unit
		// again, and the first half of the fallback.
		if err := tk.Munmap(a, unit); err != nil {
			t.Fatal(err)
		}
		if err := tk.Munmap(third, unit/2); err != nil {
			t.Fatal(err)
		}
		n, err := tk.TouchHuge(a+unit, 2*unit)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 || tk.HugeNode(third) != -1 {
			t.Errorf("TouchHuge faulted %d units over a populated range (unit node %d)", n, tk.HugeNode(third))
		}
		resident := 0
		for _, nd := range tk.GetNodes(third+unit/2, unit/2) {
			if nd >= 0 {
				resident++
			}
		}
		if resident != 256 {
			t.Errorf("%d of the fallback's 256 surviving pages read as resident", resident)
		}
		if err := tk.Munmap(a+unit, 2*unit); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Phys.TotalAllocated(); got != 0 {
			t.Fatalf("%d frames stay allocated after unmapping everything, want 0", got)
		}
	})
}

// TestTouchHugeRefusesHoles: TouchHuge over a huge mapping whose middle
// 2 MiB was unmapped fails, naming the hole's address, before it faults
// anything, so no unit lands where no mapping lies (one did, and its
// 512 frames outlived both munmaps). Each surviving half still touches
// on its own, and unmapping both leaves no frame allocated.
func TestTouchHugeRefusesHoles(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		const unit = model.HugePageSize
		a, err := tk.MmapHuge(3*unit, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Munmap(a+unit, unit); err != nil {
			t.Fatal(err)
		}
		n, err := tk.TouchHuge(a, 3*unit)
		if want := fmt.Sprintf("kern: TouchHuge outside a huge mapping at %#x", a+unit); err == nil || err.Error() != want {
			t.Fatalf("TouchHuge across the hole: error %v, want %q", err, want)
		}
		if got := h.k.Phys.TotalAllocated(); n != 0 || got != 0 {
			t.Fatalf("TouchHuge across the hole faulted %d units, %d frames allocated; want 0 and 0", n, got)
		}
		for _, half := range []vm.Addr{a, a + 2*unit} {
			if n, err := tk.TouchHuge(half, unit); n != 1 || err != nil || tk.HugeNode(half) < 0 {
				t.Fatalf("TouchHuge(%#x, 2 MiB) = %d, %v (unit node %d), want 1 unit", half, n, err, tk.HugeNode(half))
			}
		}
		for _, half := range []vm.Addr{a, a + 2*unit} {
			if err := tk.Munmap(half, unit); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.k.Phys.TotalAllocated(); got != 0 {
			t.Fatalf("%d frames stay allocated after unmapping both halves, want 0", got)
		}
	})
}

// TestHugeInterleaveSpreadsUnits: huge faults key policy interleaving
// on the huge-unit index — a base-VPN key (a multiple of 512) would
// silently collapse every interleave onto the node set's first entry.
func TestHugeInterleaveSpreadsUnits(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, err := tk.MmapHuge(8*model.HugePageSize, vm.Interleave(0, 1, 2, 3), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, 8*model.HugePageSize); err != nil {
			t.Fatal(err)
		}
		hist := map[int]int{}
		for u := 0; u < 8; u++ {
			hist[tk.HugeNode(a+vm.Addr(u)*model.HugePageSize)]++
		}
		for n := 0; n < 4; n++ {
			if hist[n] != 2 {
				t.Fatalf("huge interleave histogram = %v, want 2 units per node", hist)
			}
		}
	})
}

// TestKswapdDemotesColdKeepsHot is the demotion daemon's core
// guarantee: under pressure it evicts pages the workload is not
// touching and spares the hot set, until the node recovers above its
// high watermark.
func TestKswapdDemotesColdKeepsHot(t *testing.T) {
	h := newSmallHarness(2, 1024) // low 51, high 81
	h.k.EnableDemotion()
	const hotPages = 64
	var hotHist map[int]int
	h.run(t, 0, func(tk *Task) {
		hot, err := tk.Mmap(hotPages*pg, vm.ProtRW, vm.Bind(0), 0, "hot")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(hot, hotPages*pg, true); err != nil {
			t.Fatal(err)
		}
		// Cold set overcommits node 0: the placement layer pins node 0
		// at its low watermark and spills the rest to node 1.
		cold, err := tk.Mmap(1100*pg, vm.ProtRW, vm.Preferred(0), 0, "cold")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(cold, 1100*pg, true); err != nil {
			t.Fatal(err)
		}
		// Sweep the hot set across many kswapd periods: hot pages keep
		// their accessed bits fresh, cold pages age out and demote.
		deadline := tk.P.Now() + 40*h.k.P.KswapdPeriod
		for tk.P.Now() < deadline {
			if err := tk.AccessRange(hot, hotPages*pg, Blocked, false); err != nil {
				t.Fatal(err)
			}
		}
		hotHist = map[int]int{}
		for _, n := range tk.GetNodes(hot, hotPages*pg) {
			hotHist[n]++
		}
	})
	if h.k.Stats.KswapdWakeups == 0 || h.k.Stats.PagesDemoted == 0 {
		t.Fatalf("kswapd never demoted: wakeups=%d demoted=%d",
			h.k.Stats.KswapdWakeups, h.k.Stats.PagesDemoted)
	}
	if h.k.Stats.PagesAged == 0 {
		t.Fatal("clock aging never ran")
	}
	// The hot set survived: the sweeps kept its accessed bits set.
	if hotHist[0] < hotPages*8/10 {
		t.Fatalf("hot set demoted from node 0: hist=%v", hotHist)
	}
	// The node recovered above its high watermark.
	if !h.k.Phys.Reclaimed(0) {
		t.Fatalf("node 0 still pressured after demotion: %d free", h.k.Phys.FreeFrames(0))
	}
}

// TestKswapdRetires: the demotion daemons exit after the last thread
// and the engine drains even when no pressure ever occurred.
func TestKswapdRetires(t *testing.T) {
	h := newHarness(false)
	h.k.EnableDemotion()
	h.run(t, 0, func(tk *Task) {
		a, err := tk.Mmap(8*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
	})
	if h.k.Stats.KswapdWakeups != 0 {
		t.Fatalf("unpressured run woke kswapd %d times", h.k.Stats.KswapdWakeups)
	}
}

// TestLiveThreadsCountsEveryTask: the live-task count that kswapd's
// retire check reads follows Spawn, Adopt, release and task exit across
// processes, and a second release of one adopted task removes nothing.
func TestLiveThreadsCountsEveryTask(t *testing.T) {
	h := newHarness(false)
	other := h.k.NewProcess("other")
	var seen []int
	h.run(t, 0, func(tk *Task) {
		seen = append(seen, h.k.LiveThreads())
		_, release := other.Adopt(tk.P, 1)
		seen = append(seen, h.k.LiveThreads())
		other.Spawn("child", 2, func(*Task) {})
		seen = append(seen, h.k.LiveThreads())
		release()
		release()
		seen = append(seen, h.k.LiveThreads())
	})
	if want := []int{1, 2, 3, 2}; !slices.Equal(seen, want) {
		t.Fatalf("live threads %v, want %v", seen, want)
	}
	if n := h.k.LiveThreads(); n != 0 {
		t.Fatalf("%d live threads after every task exited", n)
	}
}
