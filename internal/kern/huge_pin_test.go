package kern

import (
	"testing"

	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/vm"
)

// Tests for huge pages x pinning: MoveHugeRange runs through the
// shared migration engine, so a pinned 2 MiB unit is retried with
// backoff and reported -EBUSY while the rest of the range moves —
// identical semantics to pinned 4 KiB pages under move_pages.

func TestPinRangeCoversHugePages(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, err := tk.MmapHuge(4<<20, vm.Bind(0), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, 4<<20); err != nil {
			t.Fatal(err)
		}
		n, err := tk.PinRange(a, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if n != 2*model.PTEChunkPages {
			t.Fatalf("pinned %d pages, want %d (two huge units)", n, 2*model.PTEChunkPages)
		}
		n, err = tk.UnpinRange(a, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		if n != model.PTEChunkPages {
			t.Fatalf("unpinned %d pages, want %d", n, model.PTEChunkPages)
		}
	})
}

func TestMoveHugeRangePinnedEBUSY(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		const bytes = 6 << 20 // three huge units
		a, err := tk.MmapHuge(bytes, vm.Bind(0), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, bytes); err != nil {
			t.Fatal(err)
		}
		// Pin the middle unit only.
		if _, err := tk.PinRange(a+vm.Addr(model.HugePageSize), model.HugePageSize); err != nil {
			t.Fatal(err)
		}
		eng := h.k.Migrator(migrate.Patched)
		before := eng.Stats
		moved, status, err := tk.MoveHugeRange(a, bytes, 3)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 2 {
			t.Fatalf("moved %d huge units, want 2 (middle one pinned)", moved)
		}
		want := []int{3, StatusBusy, 3}
		for i, s := range status {
			if s != want[i] {
				t.Fatalf("status = %v, want %v", status, want)
			}
		}
		// Nodes reflect the partial move.
		if n := tk.HugeNode(a); n != 3 {
			t.Fatalf("first unit on node %d, want 3", n)
		}
		if n := tk.HugeNode(a + vm.Addr(model.HugePageSize)); n != 0 {
			t.Fatalf("pinned unit on node %d, want 0 (EBUSY)", n)
		}
		if n := tk.HugeNode(a + 2*vm.Addr(model.HugePageSize)); n != 3 {
			t.Fatalf("last unit on node %d, want 3", n)
		}
		// The engine's retry loop ran: backoff passes before giving up.
		d := eng.Stats
		if d.RetryPasses-before.RetryPasses != uint64(h.k.P.MigrateRetries) {
			t.Fatalf("retry passes = %d, want %d", d.RetryPasses-before.RetryPasses, h.k.P.MigrateRetries)
		}
		if d.PagesBusy-before.PagesBusy != 1 {
			t.Fatalf("busy ops = %d, want 1", d.PagesBusy-before.PagesBusy)
		}
		if d.HugePagesMoved-before.HugePagesMoved != 2 {
			t.Fatalf("huge moves = %d, want 2", d.HugePagesMoved-before.HugePagesMoved)
		}
		if got := d.BytesMoved - before.BytesMoved; got != 2*model.HugePageSize {
			t.Fatalf("bytes moved = %v, want %v", got, 2*model.HugePageSize)
		}

		// Unpin and retry: the blocked unit moves too.
		if _, err := tk.UnpinRange(a, bytes); err != nil {
			t.Fatal(err)
		}
		moved, _, err = tk.MoveHugeRange(a, bytes, 3)
		if err != nil {
			t.Fatal(err)
		}
		if moved != 1 {
			t.Fatalf("post-unpin move moved %d, want 1", moved)
		}
		if n := tk.HugeNode(a + vm.Addr(model.HugePageSize)); n != 3 {
			t.Fatalf("unpinned unit on node %d, want 3", n)
		}
		// Footprint accounting followed: everything on node 3.
		if got := h.k.Phys.Stats(0).Allocated; got != 0 {
			t.Fatalf("source node still holds %d frames", got)
		}
		if got := h.k.Phys.Stats(3).Allocated; got != 3*model.PTEChunkPages {
			t.Fatalf("target node holds %d frames, want %d", got, 3*model.PTEChunkPages)
		}
	})
}

// TestMoveHugeRangePinnedRetrySucceeds: a unit unpinned while the
// engine is backing off migrates on a retry pass instead of EBUSY,
// mirroring the kernel's EAGAIN loop.
func TestMoveHugeRangePinnedRetrySucceeds(t *testing.T) {
	h := newHarness(false)
	done := make(chan struct{}, 1)
	h.proc.Spawn("mover", 0, func(tk *Task) {
		a, err := tk.MmapHuge(2<<20, vm.Bind(0), "huge")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := tk.TouchHuge(a, 2<<20); err != nil {
			t.Error(err)
			return
		}
		if _, err := tk.PinRange(a, 2<<20); err != nil {
			t.Error(err)
			return
		}
		// Unpinner releases the pin mid-backoff.
		h.proc.Spawn("unpinner", 1, func(tk2 *Task) {
			tk2.P.Sleep(h.k.P.MigrateRetryDelay / 2)
			if _, err := tk2.UnpinRange(a, 2<<20); err != nil {
				t.Error(err)
			}
		})
		moved, _, err := tk.MoveHugeRange(a, 2<<20, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if moved != 1 {
			t.Errorf("moved %d, want 1 after mid-retry unpin", moved)
		}
		if n := tk.HugeNode(a); n != 2 {
			t.Errorf("unit on node %d, want 2", n)
		}
		done <- struct{}{}
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("mover did not finish")
	}
}

func TestGetNodesBulk(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, err := tk.Mmap(8*pg, vm.ProtRW, vm.Bind(1), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		// Fault only the even pages.
		for i := 0; i < 8; i += 2 {
			if err := tk.Touch(a+vm.Addr(i)*pg, true); err != nil {
				t.Fatal(err)
			}
		}
		syscallsBefore := h.k.Stats.Syscalls
		nodes := tk.GetNodes(a, 8*pg)
		if h.k.Stats.Syscalls != syscallsBefore+1 {
			t.Fatalf("GetNodes charged %d syscalls, want 1", h.k.Stats.Syscalls-syscallsBefore)
		}
		if len(nodes) != 8 {
			t.Fatalf("got %d entries, want 8", len(nodes))
		}
		for i, n := range nodes {
			want := -1
			if i%2 == 0 {
				want = 1
			}
			if n != want {
				t.Fatalf("nodes[%d] = %d, want %d (%v)", i, n, want, nodes)
			}
		}
		// Agrees with the per-page query mode.
		for i := 0; i < 8; i++ {
			if got := tk.GetNode(a + vm.Addr(i)*pg); got != nodes[i] {
				t.Fatalf("GetNode(%d)=%d disagrees with GetNodes=%d", i, got, nodes[i])
			}
		}
	})
}

// TestGetNodesHuge: bulk queries report the unit's node for every page
// of a huge mapping.
func TestGetNodesHuge(t *testing.T) {
	h := newHarness(false)
	h.run(t, 4, func(tk *Task) { // node 1
		a, err := tk.MmapHuge(2<<20, vm.DefaultPolicy(), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, 2<<20); err != nil {
			t.Fatal(err)
		}
		nodes := tk.GetNodes(a, 2<<20)
		if len(nodes) != model.PTEChunkPages {
			t.Fatalf("got %d entries, want %d", len(nodes), model.PTEChunkPages)
		}
		for i, n := range nodes {
			if n != 1 {
				t.Fatalf("nodes[%d] = %d, want 1", i, n)
			}
		}
	})
}

// TestQueryPagesSeesHugeUnits: move_pages' query mode reports a 2 MiB
// unit's node for every page it covers, as GetNodes does, and GetNode
// agrees; the query keeps its one syscall and per-page walk charge. A
// huge mapping no unit backs yet reports ENOENT and -1.
func TestQueryPagesSeesHugeUnits(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		const size = 4 << 20
		a, err := tk.MmapHuge(size, vm.Bind(1), "huge")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.TouchHuge(a, size); err != nil {
			t.Fatal(err)
		}
		cold, err := tk.MmapHuge(2<<20, vm.Bind(1), "cold")
		if err != nil {
			t.Fatal(err)
		}
		addrs := []vm.Addr{a, a + 5*pg + 17, a + 2<<20, a + size - 1, cold}
		want := []int{1, 1, 1, 1, StatusNoEnt}
		calls, t0 := h.k.Stats.Syscalls, h.eng.Now()
		status := tk.QueryPages(addrs)
		if got, cost := h.eng.Now()-t0, h.k.P.SyscallBase+sim.Time(len(addrs))*h.k.P.MadvisePage; got != cost {
			t.Errorf("QueryPages took %v, want %v", got, cost)
		}
		if got := h.k.Stats.Syscalls - calls; got != 1 {
			t.Errorf("QueryPages counted %d syscalls, want 1", got)
		}
		for i, x := range addrs {
			if status[i] != want[i] {
				t.Errorf("QueryPages(%#x) = %d, want %d", x, status[i], want[i])
			}
			wantNode := want[i]
			if wantNode < 0 {
				wantNode = -1
			}
			if n := tk.GetNode(x); n != wantNode {
				t.Errorf("GetNode(%#x) = %d, want %d", x, n, wantNode)
			}
		}
		if n := tk.HugeNode(a); n != 1 {
			t.Errorf("HugeNode = %d, want 1", n)
		}
	})
}
