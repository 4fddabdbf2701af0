package migrate_test

// Integration tests for the shared migration engine, driven through the
// kernel syscall surface it backs: patched-vs-unpatched cost scaling,
// busy-page (pinned) retry behaviour, and cross-node page-distribution
// invariants after migration.

import (
	"testing"

	"numamig/internal/kern"
	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

const pg = model.PageSize

type harness struct {
	eng  *sim.Engine
	k    *kern.Kernel
	proc *kern.Process
}

func newHarness(backed bool) *harness {
	eng := sim.NewEngine(7)
	k := kern.New(eng, topology.Opteron4x4(), model.Default(), backed)
	return &harness{eng: eng, k: k, proc: k.NewProcess("test")}
}

func (h *harness) run(t *testing.T, core topology.CoreID, fn func(tk *kern.Task)) {
	t.Helper()
	h.proc.Spawn("t0", core, fn)
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// movePagesTime returns the virtual duration of migrating `pages` pages
// node 0 -> node 1 with the patched or the unpatched move_pages.
func movePagesTime(t *testing.T, pages int, patched bool) sim.Time {
	t.Helper()
	h := newHarness(false)
	var dur sim.Time
	h.run(t, 4, func(tk *kern.Task) {
		a, _ := tk.Mmap(int64(pages)*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, int64(pages)*pg, true); err != nil {
			t.Fatal(err)
		}
		start := tk.P.Now()
		if _, err := tk.MovePagesTo(a, int64(pages)*pg, 1, patched); err != nil {
			t.Fatal(err)
		}
		dur = tk.P.Now() - start
	})
	return dur
}

func TestPatchedScalesLinearlyUnpatchedQuadratically(t *testing.T) {
	const n = 2048
	p1 := movePagesTime(t, n, true)
	p2 := movePagesTime(t, 2*n, true)
	u1 := movePagesTime(t, n, false)
	u2 := movePagesTime(t, 2*n, false)

	// Patched: time = base + c*pages, so doubling the pages must less
	// than double the time.
	if r := float64(p2) / float64(p1); r > 2.05 {
		t.Fatalf("patched scaling ratio = %.2f at %d->%d pages, want < 2.05 (linear)", r, n, 2*n)
	}
	// Unpatched: the quadratic term dominates at this size, so the
	// ratio must clearly exceed linear growth.
	if r := float64(u2) / float64(u1); r < 2.5 {
		t.Fatalf("unpatched scaling ratio = %.2f at %d->%d pages, want > 2.5 (quadratic)", r, n, 2*n)
	}
	if u1 <= p1 {
		t.Fatalf("unpatched (%v) should be slower than patched (%v)", u1, p1)
	}
}

func TestEngineStatsCountPipelineOutcomes(t *testing.T) {
	const pages = 128
	h := newHarness(false)
	h.run(t, 4, func(tk *kern.Task) {
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		// Fault in only the first half: the rest stays absent.
		if _, err := tk.FaultIn(a, pages/2*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.MovePagesTo(a, pages*pg, 1, true); err != nil {
			t.Fatal(err)
		}
		// Second call: everything resident is already on node 1.
		if _, err := tk.MovePagesTo(a, pages*pg, 1, true); err != nil {
			t.Fatal(err)
		}
	})
	st := h.k.Migrator(migrate.Patched).Stats
	if st.Requests != 2 {
		t.Fatalf("engine requests = %d, want 2", st.Requests)
	}
	if st.PagesMoved != pages/2 {
		t.Fatalf("engine pages moved = %d, want %d", st.PagesMoved, pages/2)
	}
	if st.PagesLocal != pages/2 {
		t.Fatalf("engine pages local = %d, want %d", st.PagesLocal, pages/2)
	}
	if st.PagesAbsent != pages {
		t.Fatalf("engine pages absent = %d, want %d (both calls)", st.PagesAbsent, pages)
	}
	if want := float64(pages/2) * pg; st.BytesMoved != want {
		t.Fatalf("engine bytes moved = %v, want %v", st.BytesMoved, want)
	}
}

func TestPinnedPageReturnsBusyAfterRetries(t *testing.T) {
	const pages = 8
	h := newHarness(false)
	var status []int
	h.run(t, 4, func(tk *kern.Task) {
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		// Pin page 3 only.
		if n, err := tk.PinRange(a+3*pg, pg); err != nil || n != 1 {
			t.Fatalf("pin: n=%d err=%v", n, err)
		}
		var err error
		status, err = tk.MovePagesTo(a, pages*pg, 1, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	for i, s := range status {
		want := 1
		if i == 3 {
			want = migrate.StatusBusy
		}
		if s != want {
			t.Fatalf("status[%d] = %d, want %d", i, s, want)
		}
	}
	st := h.k.Migrator(migrate.Patched).Stats
	if st.PagesBusy != 1 {
		t.Fatalf("engine busy pages = %d, want 1", st.PagesBusy)
	}
	if int(st.RetryPasses) != model.Default().MigrateRetries {
		t.Fatalf("engine retry passes = %d, want %d", st.RetryPasses, model.Default().MigrateRetries)
	}
}

func TestPinnedPageMigratesOnceConcurrentlyUnpinned(t *testing.T) {
	const pages = 4
	h := newHarness(false)
	ready := sim.NewEvent(h.eng)
	var a vm.Addr
	var status []int

	h.proc.Spawn("unpinner", 0, func(tk *kern.Task) {
		ready.Wait(tk.P)
		// Unpin while the mover is inside its retry backoff: move_pages
		// spends ~160us in serialized setup before its first pass, and
		// retry passes follow ~25us apart.
		tk.P.Sleep(sim.Micros(185))
		if _, err := tk.UnpinRange(a, pages*pg); err != nil {
			t.Error(err)
		}
	})
	h.proc.Spawn("mover", 4, func(tk *kern.Task) {
		a, _ = tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.PinRange(a, pages*pg); err != nil {
			t.Fatal(err)
		}
		ready.Fire()
		var err error
		status, err = tk.MovePagesTo(a, pages*pg, 1, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, s := range status {
		if s != 1 {
			t.Fatalf("status[%d] = %d, want 1 (migrated after unpin)", i, s)
		}
	}
	st := h.k.Migrator(migrate.Patched).Stats
	if st.RetryPasses == 0 {
		t.Fatal("expected at least one retry pass while the range was pinned")
	}
	if st.PagesBusy != 0 {
		t.Fatalf("engine busy pages = %d, want 0 (unpinned in time)", st.PagesBusy)
	}
}

func TestMigrationPreservesDistributionAndData(t *testing.T) {
	const pages = 96
	h := newHarness(true)
	h.run(t, 0, func(tk *kern.Task) {
		// Interleave over all four nodes, then gather everything on
		// node 2.
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "buf")
		payload := make([]byte, pages*pg)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := tk.WriteData(a, payload); err != nil {
			t.Fatal(err)
		}
		allocatedBefore := h.k.Phys.TotalAllocated()

		if _, err := tk.MovePagesTo(a, pages*pg, 2, true); err != nil {
			t.Fatal(err)
		}

		// Invariant 1: every page resides on the target node.
		for i := 0; i < pages; i++ {
			if n := tk.GetNode(a + vm.Addr(i*pg)); n != 2 {
				t.Fatalf("page %d on node %d after migration, want 2", i, n)
			}
		}
		// Invariant 2: frame accounting is conserved — the source
		// frames were freed, so total allocation is unchanged and
		// node 2 holds all pages.
		if after := h.k.Phys.TotalAllocated(); after != allocatedBefore {
			t.Fatalf("allocated frames changed %d -> %d across migration", allocatedBefore, after)
		}
		if got := h.k.Phys.Stats(2).Allocated; got != pages {
			t.Fatalf("node 2 holds %d frames, want %d", got, pages)
		}
		for _, n := range []topology.NodeID{0, 1, 3} {
			if got := h.k.Phys.Stats(n).Allocated; got != 0 {
				t.Fatalf("node %d still holds %d frames", n, got)
			}
		}
		// Invariant 3: backing bytes survived the move.
		got, err := tk.ReadData(a, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("data corrupted at byte %d after migration", i)
			}
		}
	})
	// Invariant 4: migrations were recorded against the target node.
	if got := h.k.Phys.Stats(2).MigratedIn; got < pages/2 {
		t.Fatalf("node 2 migrated-in = %d, want most of %d", got, pages)
	}
}

func TestAllPathsShareOneEngine(t *testing.T) {
	// move_pages, the kernel next-touch fault path, and mbind(MOVE) must
	// all account their pages in the same engine.
	const pages = 32
	h := newHarness(false)
	h.run(t, 4, func(tk *kern.Task) {
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "a")
		if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.MovePagesTo(a, pages*pg, 1, true); err != nil {
			t.Fatal(err)
		}
		// Kernel next-touch: mark and re-touch from node 1's core.
		if _, err := tk.Madvise(a, pages*pg, kern.AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(8) // node 2
		if _, err := tk.FaultIn(a, pages*pg, false); err != nil {
			t.Fatal(err)
		}
		// mbind(MPOL_MF_MOVE) back to node 0.
		if err := tk.Mbind(a, pages*pg, vm.Bind(0), kern.MbindMove); err != nil {
			t.Fatal(err)
		}
	})
	st := h.k.Migrator(migrate.Patched).Stats
	if st.PagesMoved != 3*pages {
		t.Fatalf("engine saw %d page moves, want %d (all three paths)", st.PagesMoved, 3*pages)
	}
	if h.k.Stats.MovePagesPages != 2*pages { // move_pages + mbind
		t.Fatalf("move_pages counter = %d, want %d", h.k.Stats.MovePagesPages, 2*pages)
	}
	if h.k.Stats.NTMigrations != pages {
		t.Fatalf("next-touch counter = %d, want %d", h.k.Stats.NTMigrations, pages)
	}
}

func TestPinnedNextTouchPageRestoresAccessInPlace(t *testing.T) {
	// A failed lazy migration (pinned page) must clear the mark and
	// leave the page where it is, so the touch settles instead of
	// looping forever.
	const pages = 4
	h := newHarness(false)
	h.run(t, 4, func(tk *kern.Task) {
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.PinRange(a, pages*pg); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, pages*pg, kern.AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		// Touch from a remote node: migration is impossible, access must
		// still be restored with the pages left on node 0.
		if _, err := tk.FaultIn(a, pages*pg, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i++ {
			if n := tk.GetNode(a + vm.Addr(i*pg)); n != 0 {
				t.Fatalf("pinned page %d moved to node %d", i, n)
			}
		}
	})
	st := h.k.Migrator(migrate.Patched).Stats
	if st.PagesBusy != pages {
		t.Fatalf("engine busy pages = %d, want %d", st.PagesBusy, pages)
	}
	if h.k.Stats.NTMigrations != 0 {
		t.Fatalf("NT migrations = %d, want 0 (all pinned)", h.k.Stats.NTMigrations)
	}
}

func TestPinnedLocalPagesSucceedWithoutRetry(t *testing.T) {
	// Pages already on their target node need no isolation, so pinning
	// must not force them through the retry/EBUSY path.
	const pages = 8
	h := newHarness(false)
	var status []int
	h.run(t, 4, func(tk *kern.Task) {
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.PinRange(a, pages*pg); err != nil {
			t.Fatal(err)
		}
		var err error
		status, err = tk.MovePagesTo(a, pages*pg, 0, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	for i, s := range status {
		if s != 0 {
			t.Fatalf("status[%d] = %d, want 0 (already local)", i, s)
		}
	}
	st := h.k.Migrator(migrate.Patched).Stats
	if st.PagesBusy != 0 || st.RetryPasses != 0 {
		t.Fatalf("busy=%d retries=%d, want 0/0 for pinned-but-local pages", st.PagesBusy, st.RetryPasses)
	}
	if st.PagesLocal != pages {
		t.Fatalf("local pages = %d, want %d", st.PagesLocal, pages)
	}
}
