package kern

import (
	"fmt"
	"strings"
	"testing"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/tenancy"
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
		moved, _, err := tk.MoveHugeRange(a, 4<<20, 3)
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
		moved, _, err = tk.MoveHugeRange(a, 4<<20, 3)
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
			if _, _, err := tk.MoveHugeRange(a, bytes, 1); err != nil {
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
		if _, _, err := tk.MoveHugeRange(a, 4*pg, 1); err == nil {
			t.Fatal("MoveHugeRange on small mapping accepted")
		}
	})
}

// TestHugeRangeLengths: a zero-length TouchHuge or MoveHugeRange
// returns 0 and changes nothing, like every other range call, and
// MoveHugeRange's status is empty; a negative length is an error naming
// the call and the length. Both used to fail with "empty huge range".
func TestHugeRangeLengths(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, err := tk.MmapHuge(2*model.HugePageSize, vm.Bind(0), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, model.HugePageSize); err != nil {
			t.Fatal(err)
		}
		untouched := a + model.HugePageSize
		frames := h.k.Phys.TotalAllocated()
		for _, length := range []int64{0, -model.HugePageSize} {
			n, err := tk.TouchHuge(untouched, length)
			moved, st, merr := tk.MoveHugeRange(a, length, 1)
			if length == 0 {
				if n != 0 || err != nil {
					t.Errorf("TouchHuge of zero length returned %d, %v; want 0, nil", n, err)
				}
				if moved != 0 || len(st) != 0 || merr != nil {
					t.Errorf("MoveHugeRange of zero length returned %d, %v, %v; want 0, an empty status, nil", moved, st, merr)
				}
			} else {
				for _, c := range []struct {
					call string
					err  error
				}{{"TouchHuge", err}, {"MoveHugeRange", merr}} {
					if want := fmt.Sprintf("%s of negative length %d ", c.call, length); c.err == nil || !strings.Contains(c.err.Error(), want) {
						t.Errorf("%s of length %d returned %v; want an error naming %q", c.call, length, c.err, want)
					}
				}
				if n != 0 || moved != 0 || st != nil {
					t.Errorf("negative length: TouchHuge returned %d, MoveHugeRange %d, %v; want 0, 0, nil", n, moved, st)
				}
			}
			if got := h.k.Phys.TotalAllocated(); got != frames {
				t.Errorf("length %d: %d frames allocated, want %d", length, got, frames)
			}
			if tk.HugeNode(a) != 0 || tk.HugeNode(untouched) != -1 {
				t.Errorf("length %d: huge units on nodes %d and %d, want 0 and none", length, tk.HugeNode(a), tk.HugeNode(untouched))
			}
		}
	})
}

// TestMunmapFreesHugeUnits: unmapping a huge mapping returns each
// unit whole, its representative frame and its 511-frame footprint,
// whether the unit was first-touched there or moved since.
func TestMunmapFreesHugeUnits(t *testing.T) {
	for _, move := range []bool{false, true} {
		h := newHarness(false)
		h.run(t, 0, func(tk *Task) {
			const bytes = 2 * model.HugePageSize
			a, err := tk.MmapHuge(bytes, vm.Bind(0), "huge")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.TouchHuge(a, bytes); err != nil {
				t.Fatal(err)
			}
			if move {
				if n, _, err := tk.MoveHugeRange(a, bytes, 3); err != nil || n != 2 {
					t.Fatalf("moved %d huge units (err %v), want 2", n, err)
				}
			}
			if err := tk.Munmap(a, bytes); err != nil {
				t.Fatal(err)
			}
			if got := h.k.Phys.TotalAllocated(); got != 0 {
				t.Fatalf("move=%v: %d frames stay allocated after unmapping two huge units, want 0", move, got)
			}
		})
	}
}

// TestHugeFallbackChargesTenant: a huge fault served with 512 base
// pages allocates them through the 4 KiB demand step, so the tenant is
// charged for every page and unmapping them empties the ledger.
func TestHugeFallbackChargesTenant(t *testing.T) {
	h := newSmallHarness(2, 768)
	ten := h.k.Ten.Admit(1, "t", tenancy.ClassBatch, 0)
	h.proc.SetTenant(ten)
	h.run(t, 0, func(tk *Task) {
		const bytes = 3 * model.HugePageSize // two units fit, the third falls back
		a, err := tk.MmapHuge(bytes, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, bytes); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Stats.HugeFallbacks; got != 1 {
			t.Fatalf("%d huge fallbacks, want 1", got)
		}
		if got := ten.Resident(); got != model.PTEChunkPages {
			t.Fatalf("tenant holds %d pages after the fallback, want its %d base pages", got, model.PTEChunkPages)
		}
		if err := tk.Munmap(a, bytes); err != nil {
			t.Fatal(err)
		}
		if got := ten.Resident(); got != 0 {
			t.Fatalf("tenant holds %d pages after the unmap, want 0", got)
		}
	})
}

// TestBaseFaultInHugeMapping: the 4 KiB fault handler refuses the
// pages of a huge mapping that it reads as absent, with an error naming
// TouchHuge and before it allocates anything: a present 2 MiB unit
// (which the 4 KiB walk reads as absent pages) and a unit never
// touched alike. The present base pages of a fallback chunk are still
// served.
func TestBaseFaultInHugeMapping(t *testing.T) {
	for _, touched := range []bool{false, true} {
		h := newHarness(false)
		h.run(t, 0, func(tk *Task) {
			a, err := tk.MmapHuge(model.HugePageSize, vm.Bind(0), "huge")
			if err != nil {
				t.Fatal(err)
			}
			if touched {
				if _, err := tk.TouchHuge(a, model.HugePageSize); err != nil {
					t.Fatal(err)
				}
			}
			before := h.k.Phys.TotalAllocated()
			for _, fault := range []struct {
				name string
				do   func() error
			}{
				{"FaultIn", func() error { _, err := tk.FaultIn(a, 4*pg, false); return err }},
				{"Touch", func() error { return tk.Touch(a+pg, true) }},
				{"AccessRange", func() error { return tk.AccessRange(a, 4*pg, Stream, false) }},
			} {
				if err := fault.do(); err == nil || !strings.Contains(err.Error(), "TouchHuge") {
					t.Errorf("touched=%v: %s on a huge mapping returned %v, want an error naming TouchHuge", touched, fault.name, err)
				}
				if got := h.k.Phys.TotalAllocated(); got != before {
					t.Errorf("touched=%v: %s allocated %d frames", touched, fault.name, got-before)
				}
			}
			if _, err := tk.TouchHuge(a, model.HugePageSize); err != nil {
				t.Fatal(err)
			}
			if err := tk.Munmap(a, model.HugePageSize); err != nil {
				t.Fatal(err)
			}
			if got := h.k.Phys.TotalAllocated(); got != 0 {
				t.Errorf("touched=%v: %d frames stay allocated after the unmap, want 0", touched, got)
			}
		})
	}

	h := newSmallHarness(2, 768)
	h.run(t, 0, func(tk *Task) {
		const bytes = 3 * model.HugePageSize // two units fit, the third falls back
		a, err := tk.MmapHuge(bytes, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, bytes); err != nil {
			t.Fatal(err)
		}
		fallback := a + 2*model.HugePageSize
		if tk.HugeNode(fallback) != -1 {
			t.Fatal("the third unit did not fall back to base pages")
		}
		if err := tk.AccessRange(fallback, 4*pg, Stream, true); err != nil {
			t.Fatalf("access to a fallback chunk's base pages: %v", err)
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
		if err := tk.AccessRange(a, 16*pg, Stream, false); err != nil {
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

// TestReplicaReadServedWhereCopyLives: under memory pressure a copy
// meant for node 1 lands on another node (the allocator's fallback),
// where it would serve no read, so it is freed. A node-1 read of such a
// page is served remotely by the primary, and only the copies on node 1
// count as local replica reads.
func TestReplicaReadServedWhereCopyLives(t *testing.T) {
	h := newSmallHarness(2, 256) // low watermark: 12 frames
	h.run(t, 0, func(tk *Task) {
		filler, err := tk.Mmap(236*pg, vm.ProtRW, vm.Bind(1), 0, "filler")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(filler, 236*pg, true); err != nil {
			t.Fatal(err)
		}
		a, err := tk.Mmap(64*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(a, 64*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.ReplicateRange(a, 64*pg); err != nil {
			t.Fatal(err)
		}
		where := map[topology.NodeID]int{}
		for p := vm.PageOf(a); p < vm.PageOf(a)+64; p++ {
			for _, f := range tk.Proc.replicas[p] {
				if f != nil {
					where[f.Node]++
				}
			}
		}
		if len(where) != 1 || where[1] != 8 {
			t.Fatalf("kept copies live %v, want all 8 on node 1", where)
		}
		if got := h.k.Phys.TotalAllocated(); got != 236+64+8 {
			t.Fatalf("%d frames allocated, want 236 filler, 64 primaries and 8 copies", got)
		}
		tk.MigrateTo(1) // node 1
		loc, rem, reads := h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes, h.proc.Replicas().LocalReads
		if err := tk.AccessRange(a, 64*pg, Stream, false); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Stats.LocalBytes - loc; got != 8*pg {
			t.Errorf("LocalBytes += %v, want %v", got, 8*pg)
		}
		if got := h.k.Stats.RemoteBytes - rem; got != 56*pg {
			t.Errorf("RemoteBytes += %v, want %v", got, 56*pg)
		}
		if got := h.proc.Replicas().LocalReads - reads; got != 8 {
			t.Errorf("LocalReads += %d, want 8", got)
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
		if err := tk.Touch(a, true); err != nil {
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

// TestWriteFaultCollapsesReplicas: a write fault on a replicated page
// collapses its replica set to the writer's node whichever path takes
// it, and every path counts the fault alike: one fault, one minor fault
// and one published page per page fixed.
func TestWriteFaultCollapsesReplicas(t *testing.T) {
	for _, w := range []struct {
		name  string
		write func(tk *Task, a vm.Addr) error
	}{
		{"AccessRange", func(tk *Task, a vm.Addr) error { return tk.AccessRange(a, 4*pg, Stream, true) }},
		{"Touch", func(tk *Task, a vm.Addr) error {
			for p := a; p < a+4*pg; p += pg {
				if err := tk.Touch(p, true); err != nil {
					return err
				}
			}
			return nil
		}},
		{"WriteData", func(tk *Task, a vm.Addr) error { return tk.WriteData(a, make([]byte, 4*pg)) }},
		// mprotect must not make a replicated page writable.
		{"Mprotect RW, then AccessRange", func(tk *Task, a vm.Addr) error {
			if err := tk.Mprotect(a, 4*pg, vm.ProtRW); err != nil {
				return err
			}
			return tk.AccessRange(a, 4*pg, Stream, true)
		}},
	} {
		t.Run(w.name, func(t *testing.T) {
			h := newHarness(true)
			published := 0
			h.k.Bus().Subscribe(telemetry.TopicPageFault, func(ev telemetry.Event) { published += ev.Pages })
			h.run(t, 0, func(tk *Task) {
				a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
				if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
					t.Fatal(err)
				}
				if _, err := tk.ReplicateRange(a, 4*pg); err != nil {
					t.Fatal(err)
				}
				allocated, before, pub := h.k.Phys.TotalAllocated(), h.k.Stats, published
				if err := w.write(tk, a); err != nil {
					t.Fatal(err)
				}
				if got := h.proc.Replicas().Collapses; got != 4 {
					t.Errorf("collapses = %d, want 4", got)
				}
				if got := h.k.Phys.TotalAllocated(); got != allocated-12 {
					t.Errorf("allocated frames %d -> %d, want the 12 replica copies freed", allocated, got)
				}
				st := h.k.Stats
				if f, m, p := st.Faults-before.Faults, st.MinorFaults-before.MinorFaults, published-pub; f != 4 || m != 4 || p != 4 {
					t.Errorf("faults +%d, minor faults +%d, published pages +%d; want +4 each", f, m, p)
				}
				// No stale copy serves a read from another node.
				tk.MigrateTo(12)
				reads := h.proc.Replicas().LocalReads
				if err := tk.AccessRange(a, 4*pg, Stream, false); err != nil {
					t.Fatal(err)
				}
				if got := h.proc.Replicas().LocalReads - reads; got != 0 {
					t.Errorf("node 3 read %d pages from replicas after the write", got)
				}
			})
		})
	}
}

// TestReplicaCollapseMovesTenantCharge: a write that collapses a
// replica set onto the writer's node moves the page there, and the
// tenancy ledger follows it, so unmapping releases the page where it
// lives and leaves no frame and no charge behind.
func TestReplicaCollapseMovesTenantCharge(t *testing.T) {
	h := newHarness(false)
	ten := h.k.Ten.Admit(1, "t", tenancy.ClassBatch, 0)
	h.proc.SetTenant(ten)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
		if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.ReplicateRange(a, 4*pg); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(5) // node 1
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
		if got := tk.GetNode(a); got != 1 {
			t.Fatalf("page after collapse on node %d, want writer's node 1", got)
		}
		if on0, on1 := ten.ResidentOn(0), ten.ResidentOn(1); on0 != 3 || on1 != 1 {
			t.Fatalf("tenant holds %d pages on node 0 and %d on node 1, want 3 and 1", on0, on1)
		}
		if err := tk.Munmap(a, 4*pg); err != nil {
			t.Fatal(err)
		}
		if n, r := h.k.Phys.TotalAllocated(), ten.Resident(); n != 0 || r != 0 {
			t.Fatalf("after munmap %d frames stay allocated and the tenant holds %d pages; want 0 and 0", n, r)
		}
	})
}

// TestMoversOnReplicatedPages: each page mover moves a replicated
// page's primary from node 0 to node 2, frees its copy there and
// leaves its copies on nodes 1 and 3. Writes from the home node, from
// a node holding a copy and from the primary's new node then collapse
// onto live frames, and the unmap frees every frame and every tenant
// charge.
func TestMoversOnReplicatedPages(t *testing.T) {
	for _, m := range []struct {
		name string
		move func(tk *Task, a vm.Addr) error
	}{
		{"MovePagesTo", func(tk *Task, a vm.Addr) error {
			_, err := tk.MovePagesTo(a, 4*pg, 2, true)
			return err
		}},
		{"MigratePages", func(tk *Task, a vm.Addr) error {
			_, err := tk.MigratePages([]topology.NodeID{0}, []topology.NodeID{2})
			return err
		}},
		{"Mbind MbindMove", func(tk *Task, a vm.Addr) error {
			return tk.Mbind(a, 4*pg, vm.Bind(2), MbindMove)
		}},
		{"next-touch", func(tk *Task, a vm.Addr) error {
			if _, err := tk.Madvise(a, 4*pg, AdvMigrateOnNextTouch); err != nil {
				return err
			}
			tk.MigrateTo(8) // node 2
			return tk.AccessRange(a, 4*pg, Stream, false)
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			h := newHarness(false)
			ten := h.k.Ten.Admit(1, "t", tenancy.ClassBatch, 0)
			h.proc.SetTenant(ten)
			h.run(t, 0, func(tk *Task) {
				a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
				if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
					t.Fatal(err)
				}
				if _, err := tk.ReplicateRange(a, 4*pg); err != nil {
					t.Fatal(err)
				}
				if err := m.move(tk, a); err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < 4; i++ {
					if got := tk.GetNode(a + vm.Addr(i*pg)); got != 2 {
						t.Fatalf("page %d on node %d after the move, want 2", i, got)
					}
				}
				if got := h.k.Phys.Stats(2).Allocated; got != 4 {
					t.Errorf("node 2 holds %d frames for the 4 moved pages, want 4", got)
				}
				// Page 0 from the home node, page 1 from a node holding a
				// copy, page 2 from the primary's new node; page 3 stays
				// replicated into the unmap.
				for i, core := range []topology.CoreID{0, 4, 8} {
					tk.MigrateTo(core)
					if err := tk.Touch(a+vm.Addr(int64(i)*pg), true); err != nil {
						t.Fatal(err)
					}
				}
				if err := tk.Munmap(a, 4*pg); err != nil {
					t.Fatal(err)
				}
				if n, r := h.k.Phys.TotalAllocated(), ten.Resident(); n != 0 || r != 0 {
					t.Fatalf("after munmap %d frames stay allocated and the tenant holds %d pages; want 0 and 0", n, r)
				}
			})
		})
	}
}

// TestMoveOntoLastCopyDropsSet: on two nodes a replicated page has one
// copy. Moving the primary onto that copy's node frees the copy and the
// set with it; the page stays write-protected, so a later write takes
// one minor fault and collapses nothing.
func TestMoveOntoLastCopyDropsSet(t *testing.T) {
	h := newSmallHarness(2, 256)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "ro")
		if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if n, err := tk.ReplicateRange(a, 4*pg); err != nil || n != 4 {
			t.Fatalf("replicate kept %d copies, %v; want 4", n, err)
		}
		if _, err := tk.MovePagesTo(a, 4*pg, 1, true); err != nil {
			t.Fatal(err)
		}
		if on0, on1 := h.k.Phys.Stats(0).Allocated, h.k.Phys.Stats(1).Allocated; on0 != 0 || on1 != 4 {
			t.Fatalf("nodes 0 and 1 hold %d and %d frames after the move, want 0 and 4", on0, on1)
		}
		if n := len(h.proc.replicas); n != 0 {
			t.Fatalf("%d replica sets left with no copy, want 0", n)
		}
		before := h.k.Stats.MinorFaults
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
		if got, c := h.k.Stats.MinorFaults-before, h.proc.Replicas().Collapses; got != 1 || c != 0 {
			t.Fatalf("the write took %d minor faults and %d collapses, want 1 and 0", got, c)
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
				if err := tk.AccessRange(a, bytes, Blocked, false); err != nil {
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
