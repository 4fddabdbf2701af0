package kern

import (
	"testing"

	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Tests for the paper's future-work extensions (§6): huge pages,
// read-only replication, shared-mapping next-touch.

func TestHugeMapTouchAndNode(t *testing.T) {
	h := newHarness(false)
	h.run(t, 5, func(tk *Task) { // node 1
		a, err := tk.MmapHuge(8<<20, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		n, err := tk.TouchHuge(a, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("faulted %d huge pages, want 4", n)
		}
		if got := tk.HugeNode(a); got != 1 {
			t.Fatalf("huge page on node %d, want 1 (first touch)", got)
		}
		// Footprint accounted: 4 x 512 frames.
		if got := h.k.Phys.Stats(1).Allocated; got != 4*512 {
			t.Fatalf("allocated frames = %d, want 2048", got)
		}
		// Second touch is a no-op.
		n, err = tk.TouchHuge(a, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("re-touch faulted %d", n)
		}
	})
}

func TestHugeMigration(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, err := tk.MmapHuge(4<<20, vm.Bind(0), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, 4<<20); err != nil {
			t.Fatal(err)
		}
		moved, err := tk.MoveHugeRange(a, 4<<20, 3)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 2 {
			t.Fatalf("moved %d huge pages, want 2", moved)
		}
		if got := tk.HugeNode(a); got != 3 {
			t.Fatalf("node after move = %d", got)
		}
		// Memory accounting moved with it.
		if got := h.k.Phys.Stats(0).Allocated; got != 0 {
			t.Fatalf("source node still holds %d frames", got)
		}
		if got := h.k.Phys.Stats(3).Allocated; got != 2*512 {
			t.Fatalf("target node holds %d frames, want 1024", got)
		}
		// Idempotent when already there.
		moved, err = tk.MoveHugeRange(a, 4<<20, 3)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 0 {
			t.Fatalf("re-move moved %d", moved)
		}
	})
}

func TestHugeMigrationFasterThanSmallPages(t *testing.T) {
	// The win the paper anticipates from huge-page migration: per-page
	// control amortized 512x.
	const bytes = 32 << 20
	small := func() sim.Time {
		h := newHarness(false)
		var d sim.Time
		h.run(t, 4, func(tk *Task) {
			a, _ := tk.Mmap(bytes, vm.ProtRW, vm.Bind(0), 0, "small")
			if _, err := tk.FaultIn(a, bytes, true); err != nil {
				t.Fatal(err)
			}
			start := tk.P.Now()
			if _, err := tk.MovePagesTo(a, bytes, 1, true); err != nil {
				t.Fatal(err)
			}
			d = tk.P.Now() - start
		})
		return d
	}()
	huge := func() sim.Time {
		h := newHarness(false)
		var d sim.Time
		h.run(t, 4, func(tk *Task) {
			a, err := tk.MmapHuge(bytes, vm.Bind(0), "huge")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.TouchHuge(a, bytes); err != nil {
				t.Fatal(err)
			}
			start := tk.P.Now()
			if _, err := tk.MoveHugeRange(a, bytes, 1); err != nil {
				t.Fatal(err)
			}
			d = tk.P.Now() - start
		})
		return d
	}()
	if ratio := float64(small) / float64(huge); ratio < 1.3 {
		t.Fatalf("huge migration speedup = %.2fx (small %v vs huge %v), want >1.3x", ratio, small, huge)
	}
}

func TestHugeRangeValidation(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "small")
		if _, err := tk.TouchHuge(a, 4*pg); err == nil {
			t.Fatal("TouchHuge on small mapping accepted")
		}
		ha, _ := tk.MmapHuge(2<<20, vm.DefaultPolicy(), "h")
		if _, err := tk.TouchHuge(ha+4096, 2<<20); err == nil {
			t.Fatal("unaligned huge touch accepted")
		}
		if _, err := tk.MoveHugeRange(a, 4*pg, 1); err == nil {
			t.Fatal("MoveHugeRange on small mapping accepted")
		}
	})
}

func TestReplicationServesLocalReads(t *testing.T) {
	h := newHarness(true)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(16*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
		if err := tk.WriteData(a, []byte("replicated payload")); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(a, 16*pg, true); err != nil {
			t.Fatal(err)
		}
		created, err := tk.ReplicateRange(a, 16*pg)
		if err != nil {
			t.Fatal(err)
		}
		if created != 16*3 {
			t.Fatalf("created %d replicas, want 48", created)
		}
		// Reads from node 3 are local now.
		tk.MigrateTo(13)
		before := h.k.Stats.RemoteBytes
		if err := tk.ReadReplicated(a, 16*pg, Stream); err != nil {
			t.Fatal(err)
		}
		if h.k.Stats.RemoteBytes != before {
			t.Fatal("replicated read still went remote")
		}
		if h.proc.Replicas().LocalReads != 16 {
			t.Fatalf("local reads = %d", h.proc.Replicas().LocalReads)
		}
	})
}

func TestReplicationCollapseOnWrite(t *testing.T) {
	h := newHarness(true)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
		if err := tk.WriteData(a, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.ReplicateRange(a, 4*pg); err != nil {
			t.Fatal(err)
		}
		allocatedBefore := h.k.Phys.TotalAllocated()
		// Write from node 2 collapses page 0's replicas, keeping the
		// local copy.
		tk.MigrateTo(9)
		if err := tk.WriteReplicated(a); err != nil {
			t.Fatal(err)
		}
		if got := tk.GetNode(a); got != 2 {
			t.Fatalf("page after collapse on node %d, want writer's node 2", got)
		}
		if h.k.Phys.TotalAllocated() != allocatedBefore-3 {
			t.Fatalf("replica frames not freed: %d -> %d", allocatedBefore, h.k.Phys.TotalAllocated())
		}
		if h.proc.Replicas().Collapses != 1 {
			t.Fatalf("collapses = %d", h.proc.Replicas().Collapses)
		}
		// Data still intact.
		got, err := tk.ReadData(a, 2)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "v1" {
			t.Fatalf("data after collapse = %q", got)
		}
		// Other pages keep their replicas.
		if tk.Proc.replicas[vm.PageOf(a+pg)] == nil {
			t.Fatal("unwritten page lost its replicas")
		}
	})
}

// TestMunmapFreesReplicas: unmapping a replicated range frees the
// replica copies along with the mapped frames and forgets the sets,
// while replica sets outside the range survive.
func TestMunmapFreesReplicas(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		keep, _ := tk.Mmap(2*pg, vm.ProtRW, vm.Bind(0), 0, "keep")
		a, _ := tk.Mmap(8*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
		for _, m := range []struct {
			addr  vm.Addr
			pages int64
		}{{keep, 2}, {a, 8}} {
			if _, err := tk.FaultIn(m.addr, m.pages*pg, true); err != nil {
				t.Fatal(err)
			}
			if _, err := tk.ReplicateRange(m.addr, m.pages*pg); err != nil {
				t.Fatal(err)
			}
		}
		if got := h.k.Phys.TotalAllocated(); got != 10*4 {
			t.Fatalf("allocated %d frames for 10 pages replicated on 4 nodes, want 40", got)
		}
		if err := tk.Munmap(a, 8*pg); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Phys.TotalAllocated(); got != 2*4 {
			t.Fatalf("%d frames allocated after unmapping 8 replicated pages, want the 8 of the kept pages", got)
		}
		if got := len(tk.Proc.replicas); got != 2 {
			t.Fatalf("%d replica sets after the unmap, want the kept range's 2", got)
		}
	})
}

func TestReplicatedReadContentionAdvantage(t *testing.T) {
	// 16 threads reading one hot buffer: replication removes the node-0
	// bottleneck.
	const bytes = 8 << 20
	run := func(replicate bool) sim.Time {
		h := newHarness(false)
		ready := sim.NewEvent(h.eng)
		var a vm.Addr
		var start sim.Time
		h.proc.Spawn("setup", 0, func(tk *Task) {
			a, _ = tk.Mmap(bytes, vm.ProtRW, vm.Bind(0), 0, "hot")
			if _, err := tk.FaultIn(a, bytes, true); err != nil {
				t.Error(err)
			}
			if replicate {
				if _, err := tk.ReplicateRange(a, bytes); err != nil {
					t.Error(err)
				}
			}
			start = tk.P.Now()
			ready.Fire()
		})
		var last sim.Time
		for c := 0; c < 16; c++ {
			h.proc.Spawn("reader", topology.CoreID(c), func(tk *Task) {
				ready.Wait(tk.P)
				if err := tk.ReadReplicated(a, bytes, Blocked); err != nil {
					t.Error(err)
				}
				if tk.P.Now() > last {
					last = tk.P.Now()
				}
			})
		}
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last - start
	}
	static, repl := run(false), run(true)
	if float64(static) < 1.5*float64(repl) {
		t.Fatalf("replication should clearly win on a hot shared buffer: static %v vs replicated %v", static, repl)
	}
}

func TestSharedMappingNextTouch(t *testing.T) {
	// The paper's kernel implementation supports only private anonymous
	// pages; supporting shared mappings is listed as future work. Our
	// implementation handles them: same madvise, same fault-time
	// migration.
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(8*pg, vm.ProtRW, vm.Bind(0), vm.VMAShared, "shm")
		if _, err := tk.FaultIn(a, 8*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, 8*pg, AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(12) // node 3
		if _, err := tk.FaultIn(a, 8*pg, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if n := tk.GetNode(a + vm.Addr(i)*pg); n != 3 {
				t.Fatalf("shared page %d on node %d", i, n)
			}
		}
	})
}
