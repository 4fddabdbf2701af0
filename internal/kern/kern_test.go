package kern

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// harness bundles a kernel and process for tests.
type harness struct {
	eng  *sim.Engine
	k    *Kernel
	proc *Process
}

func newHarness(backed bool) *harness {
	eng := sim.NewEngine(7)
	k := New(eng, topology.Opteron4x4(), model.Default(), backed)
	return &harness{eng: eng, k: k, proc: k.NewProcess("test")}
}

// run spawns a single task on core and executes fn; it fails the test on
// engine error.
func (h *harness) run(t *testing.T, core topology.CoreID, fn func(tk *Task)) {
	t.Helper()
	h.proc.Spawn("t0", core, fn)
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

const pg = model.PageSize

func TestFirstTouchAllocatesLocally(t *testing.T) {
	h := newHarness(false)
	h.run(t, 5, func(tk *Task) { // core 5 is on node 1
		a, err := tk.Mmap(8*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
		if n := tk.GetNode(a); n != 1 {
			t.Fatalf("first touch placed page on node %d, want 1", n)
		}
		// Untouched page not present.
		if n := tk.GetNode(a + pg); n != -1 {
			t.Fatalf("untouched page present on node %d", n)
		}
	})
	if h.k.Stats.DemandAllocs != 1 {
		t.Fatalf("demand allocs = %d", h.k.Stats.DemandAllocs)
	}
}

func TestInterleavePolicy(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(64*pg, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "il")
		if _, err := tk.FaultIn(a, 64*pg, true); err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for i := 0; i < 64; i++ {
			counts[tk.GetNode(a+vm.Addr(i)*pg)]++
		}
		for n := 0; n < 4; n++ {
			if counts[n] != 16 {
				t.Fatalf("interleave counts = %v", counts)
			}
		}
	})
}

func TestSegvWithoutHandler(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if err := tk.Mprotect(a, 4*pg, vm.ProtNone); err != nil {
			t.Fatal(err)
		}
		err := tk.Touch(a, false)
		var segv ErrSegv
		if !errors.As(err, &segv) {
			t.Fatalf("err = %v, want ErrSegv", err)
		}
		if segv.Addr != a || segv.Write {
			t.Fatalf("segv info = %+v", segv)
		}
		// Unmapped address also faults.
		err = tk.Touch(0xdead0000, false)
		if !errors.As(err, &segv) {
			t.Fatalf("unmapped touch err = %v", err)
		}
	})
	if h.k.Stats.Sigsegvs != 2 {
		t.Fatalf("sigsegvs = %d", h.k.Stats.Sigsegvs)
	}
}

func TestSegvHandlerRepairsAndRetries(t *testing.T) {
	h := newHarness(false)
	calls := 0
	h.proc.OnSegv(func(tk *Task, info SigInfo) {
		calls++
		if err := tk.Mprotect(vm.PageFloor(info.Addr), pg, vm.ProtRW); err != nil {
			t.Error(err)
		}
	})
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
		if err := tk.Mprotect(a, pg, vm.ProtNone); err != nil {
			t.Fatal(err)
		}
		if err := tk.Touch(a, true); err != nil {
			t.Fatalf("touch after handler repair: %v", err)
		}
	})
	if calls != 1 {
		t.Fatalf("handler calls = %d", calls)
	}
}

func TestKernelNextTouchMigratesToToucher(t *testing.T) {
	h := newHarness(true)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		payload := []byte("next-touch payload survives migration")
		if err := tk.WriteData(a+100, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, 4*pg, AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		// Move the thread to node 2 and touch.
		tk.MigrateTo(8) // core 8 -> node 2
		if err := tk.Touch(a+100, false); err != nil {
			t.Fatal(err)
		}
		if n := tk.GetNode(a); n != 2 {
			t.Fatalf("page on node %d after next-touch, want 2", n)
		}
		// Only the touched page migrated; others keep the mark until
		// touched.
		if n := tk.GetNode(a + pg); n != 0 {
			t.Fatalf("untouched page moved to node %d", n)
		}
		got, err := tk.ReadData(a+100, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("data corrupted across migration: %q", got)
		}
	})
	if h.k.Stats.NTMigrations != 1 {
		t.Fatalf("nt migrations = %d", h.k.Stats.NTMigrations)
	}
}

func TestNextTouchLocalTouchSkipsCopy(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, pg, AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		if err := tk.Touch(a, false); err != nil {
			t.Fatal(err)
		}
		if n := tk.GetNode(a); n != 0 {
			t.Fatalf("page moved to %d", n)
		}
	})
	if h.k.Stats.NTMigrations != 0 || h.k.Stats.NTLocalSkips != 1 {
		t.Fatalf("migrations=%d skips=%d", h.k.Stats.NTMigrations, h.k.Stats.NTLocalSkips)
	}
}

func TestMadviseNormalClearsMark(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(pg, vm.ProtRW, vm.Bind(3), 0, "buf")
		if err := tk.Touch(a, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, pg, AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, pg, AdvNormal); err != nil {
			t.Fatal(err)
		}
		if err := tk.Touch(a, false); err != nil {
			t.Fatal(err)
		}
		if n := tk.GetNode(a); n != 3 {
			t.Fatalf("cleared mark still migrated page to %d", n)
		}
	})
}

func TestMovePagesStatusAndPlacement(t *testing.T) {
	h := newHarness(true)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, 3*pg, true); err != nil { // leave page 3 absent
			t.Fatal(err)
		}
		if err := tk.WriteData(a, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		addrs := []vm.Addr{a, a + pg, a + 2*pg, a + 3*pg}
		nodes := []topology.NodeID{2, 2, 0, 2}
		st, err := tk.MovePages(addrs, nodes, true)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{2, 2, 0, StatusNoEnt}
		for i := range want {
			if st[i] != want[i] {
				t.Fatalf("status = %v, want %v", st, want)
			}
		}
		if tk.GetNode(a) != 2 || tk.GetNode(a+2*pg) != 0 {
			t.Fatal("pages not where requested")
		}
		got, err := tk.ReadData(a, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
			t.Fatalf("data lost in move_pages: %v", got)
		}
	})
	// Two pages migrated 0->2; the already-correct page is not copied.
	if h.k.Stats.MovePagesPages != 2 {
		t.Fatalf("moved pages = %d, want 2", h.k.Stats.MovePagesPages)
	}
}

func TestMovePagesMismatchedArrays(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		_, err := tk.MovePages(make([]vm.Addr, 2), make([]topology.NodeID, 3), true)
		if err == nil {
			t.Fatal("expected error")
		}
	})
}

func TestMovePagesToConvenience(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(16*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, 16*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.MovePagesTo(a, 16*pg, 3, true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			if n := tk.GetNode(a + vm.Addr(i)*pg); n != 3 {
				t.Fatalf("page %d on node %d", i, n)
			}
		}
	})
}

func TestUnpatchedMovePagesQuadraticSlowdown(t *testing.T) {
	const pages = 2048
	run := func(patched bool) sim.Time {
		h := newHarness(false)
		var dur sim.Time
		h.run(t, 4, func(tk *Task) {
			a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
			if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
				t.Fatal(err)
			}
			start := tk.P.Now()
			if _, err := tk.MovePagesTo(a, pages*pg, 1, patched); err != nil {
				t.Fatal(err)
			}
			dur = tk.P.Now() - start
		})
		return dur
	}
	fast, slow := run(true), run(false)
	if slow < 2*fast {
		t.Fatalf("unpatched (%v) should be >2x slower than patched (%v) at %d pages", slow, fast, pages)
	}
}

func TestMovePagesThroughputCalibration(t *testing.T) {
	// Patched move_pages should sustain roughly 600 MB/s on large
	// buffers (paper §4.2).
	const pages = 8192
	h := newHarness(false)
	var dur sim.Time
	h.run(t, 4, func(tk *Task) {
		a, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		start := tk.P.Now()
		if _, err := tk.MovePagesTo(a, pages*pg, 1, true); err != nil {
			t.Fatal(err)
		}
		dur = tk.P.Now() - start
	})
	mbps := float64(pages*pg) / dur.Seconds() / 1e6
	if mbps < 500 || mbps > 750 {
		t.Fatalf("move_pages throughput = %.0f MB/s, want ~600", mbps)
	}
}

func TestKernelNextTouchThroughputCalibration(t *testing.T) {
	// Kernel next-touch should sustain roughly 800 MB/s even for small
	// buffers (paper Fig. 5).
	for _, pages := range []int{16, 4096} {
		h := newHarness(false)
		var dur sim.Time
		h.run(t, 4, func(tk *Task) {
			a, _ := tk.Mmap(int64(pages)*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
			if _, err := tk.FaultIn(a, int64(pages)*pg, true); err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Madvise(a, int64(pages)*pg, AdvMigrateOnNextTouch); err != nil {
				t.Fatal(err)
			}
			start := tk.P.Now()
			if _, err := tk.FaultIn(a, int64(pages)*pg, false); err != nil {
				t.Fatal(err)
			}
			dur = tk.P.Now() - start
		})
		mbps := float64(pages) * pg / dur.Seconds() / 1e6
		if mbps < 650 || mbps > 950 {
			t.Fatalf("kernel NT throughput at %d pages = %.0f MB/s, want ~800", pages, mbps)
		}
	}
}

func TestMigratePagesMovesWholeProcess(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(32*pg, vm.ProtRW, vm.Bind(0), 0, "a")
		b, _ := tk.Mmap(16*pg, vm.ProtRW, vm.Bind(1), 0, "b")
		if _, err := tk.FaultIn(a, 32*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(b, 16*pg, true); err != nil {
			t.Fatal(err)
		}
		moved, err := tk.MigratePages([]topology.NodeID{0}, []topology.NodeID{2})
		if err != nil {
			t.Fatal(err)
		}
		if moved != 32 {
			t.Fatalf("moved = %d, want 32", moved)
		}
		if tk.GetNode(a) != 2 || tk.GetNode(b) != 1 {
			t.Fatalf("nodes after migrate_pages: a=%d b=%d", tk.GetNode(a), tk.GetNode(b))
		}
	})
}

func TestAccessRangeRemoteSlowerAndBlockedWorseThanStream(t *testing.T) {
	measure := func(bind topology.NodeID, kind AccessKind) sim.Time {
		h := newHarness(false)
		var dur sim.Time
		h.run(t, 0, func(tk *Task) { // node 0
			a, _ := tk.Mmap(256*pg, vm.ProtRW, vm.Bind(bind), 0, "buf")
			if _, err := tk.FaultIn(a, 256*pg, true); err != nil {
				t.Fatal(err)
			}
			start := tk.P.Now()
			if err := tk.AccessRange(a, 256*pg, kind, false); err != nil {
				t.Fatal(err)
			}
			dur = tk.P.Now() - start
		})
		return dur
	}
	local := measure(0, Blocked)
	remote1hop := measure(1, Blocked)
	remote2hop := measure(3, Blocked)
	remoteStream := measure(3, Stream)
	if !(local < remote1hop && remote1hop < remote2hop) {
		t.Fatalf("blocked access times: local=%v 1hop=%v 2hop=%v", local, remote1hop, remote2hop)
	}
	if remoteStream >= remote2hop {
		t.Fatalf("stream remote (%v) should beat blocked remote (%v)", remoteStream, remote2hop)
	}
	// Blocked remote pays NUMAFactor x BlockedBoost (1.4 x 1.55 at two
	// hops): latency-bound kernels degrade beyond the raw distance
	// ratio.
	want := 1.4 * model.Default().BlockedBoost
	ratio := float64(remote2hop) / float64(local)
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Fatalf("2-hop blocked penalty ratio = %.2f, want ~%.2f", ratio, want)
	}
}

func TestAccessRangeTriggersNextTouch(t *testing.T) {
	h := newHarness(false)
	h.run(t, 12, func(tk *Task) { // node 3
		a, _ := tk.Mmap(64*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, 64*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Madvise(a, 64*pg, AdvMigrateOnNextTouch); err != nil {
			t.Fatal(err)
		}
		if err := tk.AccessRange(a, 64*pg, Stream, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if n := tk.GetNode(a + vm.Addr(i)*pg); n != 3 {
				t.Fatalf("page %d on node %d after NT access", i, n)
			}
		}
	})
	if h.k.Stats.NTMigrations != 64 {
		t.Fatalf("nt migrations = %d", h.k.Stats.NTMigrations)
	}
}

func TestMemcpyBackedCopiesBytes(t *testing.T) {
	h := newHarness(true)
	h.run(t, 0, func(tk *Task) {
		src, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "src")
		dst, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(1), 0, "dst")
		payload := bytes.Repeat([]byte("abcdefgh"), 512) // one page
		if err := tk.WriteData(src+pg, payload); err != nil {
			t.Fatal(err)
		}
		if err := tk.Memcpy(dst, src, 4*pg); err != nil {
			t.Fatal(err)
		}
		got, err := tk.ReadData(dst+pg, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("memcpy did not copy bytes")
		}
	})
}

func TestMemcpyThroughputCalibration(t *testing.T) {
	const pages = 4096
	h := newHarness(false)
	var dur sim.Time
	h.run(t, 4, func(tk *Task) { // node 1 copies node0 -> node1
		src, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "src")
		dst, _ := tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(1), 0, "dst")
		if _, err := tk.FaultIn(src, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(dst, pages*pg, true); err != nil {
			t.Fatal(err)
		}
		start := tk.P.Now()
		if err := tk.Memcpy(dst, src, pages*pg); err != nil {
			t.Fatal(err)
		}
		dur = tk.P.Now() - start
	})
	gbps := float64(pages*pg) / dur.Seconds() / 1e9
	if gbps < 1.7 || gbps > 2.3 {
		t.Fatalf("memcpy = %.2f GB/s, want ~2.1", gbps)
	}
}

func TestWriteReadDataRoundTripAcrossMovePages(t *testing.T) {
	h := newHarness(true)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(8*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		data := make([]byte, 8*pg)
		for i := range data {
			data[i] = byte(i * 31)
		}
		if err := tk.WriteData(a, data); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.MovePagesTo(a, 8*pg, 3, true); err != nil {
			t.Fatal(err)
		}
		got, err := tk.ReadData(a, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted across move_pages")
		}
	})
}

func TestThreadedLazyMigrationScales(t *testing.T) {
	// 4 threads on node 1 faulting disjoint quarters of a large
	// NT-marked buffer should beat 1 thread, but sub-linearly
	// (lock + channel contention), cf. Fig. 7.
	const pages = 16384
	run := func(threads int) sim.Time {
		h := newHarness(false)
		setup := sim.NewEvent(h.eng)
		var a vm.Addr
		h.proc.Spawn("setup", 0, func(tk *Task) {
			a, _ = tk.Mmap(pages*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
			if _, err := tk.FaultIn(a, pages*pg, true); err != nil {
				t.Error(err)
			}
			if _, err := tk.Madvise(a, pages*pg, AdvMigrateOnNextTouch); err != nil {
				t.Error(err)
			}
			setup.Fire()
		})
		var last sim.Time
		chunk := pages / threads
		for i := 0; i < threads; i++ {
			i := i
			h.proc.Spawn(fmt.Sprintf("mig%d", i), topology.CoreID(4+i), func(tk *Task) {
				setup.Wait(tk.P)
				start := tk.P.Now()
				if _, err := tk.FaultIn(a+vm.Addr(i*chunk)*pg, int64(chunk)*pg, false); err != nil {
					t.Error(err)
				}
				if end := tk.P.Now(); end > last {
					last = end
				}
				_ = start
			})
		}
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	t1, t4 := run(1), run(4)
	speedup := float64(t1) / float64(t4)
	if speedup < 1.3 || speedup > 2.5 {
		t.Fatalf("4-thread lazy migration speedup = %.2f, want ~1.6 (paper: +50-60%%)", speedup)
	}
}

// TestMoveKeepsBitsSetDuringControl: move_pages classifies a page under
// the chunk lock and then waits for the global LRU lock; a write the
// hardware records and a pin taken meanwhile, both without the chunk
// lock, must survive the rewrite, so the engine re-reads each page
// before installing its moved copy.
func TestMoveKeepsBitsSetDuringControl(t *testing.T) {
	h := newHarness(false)
	var a vm.Addr
	h.proc.Spawn("holder", 0, func(tk *Task) {
		a, _ = tk.Mmap(pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, pg, false); err != nil {
			t.Error(err)
		}
		lru := h.k.LRULock()
		lru.Acquire(tk.P)
		h.proc.Spawn("mover", 1, func(tm *Task) {
			if st, err := tm.MovePages([]vm.Addr{a}, []topology.NodeID{2}, true); err != nil || st[0] != 2 {
				t.Errorf("move_pages = %v, %v; want the page moved to node 2", st, err)
			}
		})
		// Past the mover's setup cost: it has classified the page and
		// queues on the LRU lock.
		tk.P.Sleep(2 * h.k.P.MovePagesBase)
		if err := tk.Touch(a, true); err != nil {
			t.Error(err)
		}
		if _, err := tk.PinRange(a, pg); err != nil {
			t.Error(err)
		}
		lru.Release()
	})
	if err := h.eng.Run(); err != nil {
		t.Fatal(err)
	}
	const want = vm.PTEDirty | vm.PTEPinned
	if pte := h.proc.Space.PT.Get(vm.PageOf(a)); pte.Frame.Node != 2 || pte.Flags&want != want {
		t.Fatalf("moved page on node %d with flags %#x; want node 2 keeping dirty and pinned (%#x)", pte.Frame.Node, pte.Flags, want)
	}
}

func TestStatsLocalRemoteBytes(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(0), 0, "l")
		b, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(2), 0, "r")
		if _, err := tk.FaultIn(a, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(b, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if err := tk.AccessRange(a, 4*pg, Stream, false); err != nil {
			t.Fatal(err)
		}
		if err := tk.AccessRange(b, 4*pg, Stream, false); err != nil {
			t.Fatal(err)
		}
	})
	if h.k.Stats.LocalBytes != 4*pg || h.k.Stats.RemoteBytes != 4*pg {
		t.Fatalf("local=%v remote=%v", h.k.Stats.LocalBytes, h.k.Stats.RemoteBytes)
	}
}

func TestMbindChangesPolicy(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(8*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if err := tk.Mbind(a, 8*pg, vm.Bind(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.FaultIn(a, 8*pg, true); err != nil {
			t.Fatal(err)
		}
		if n := tk.GetNode(a); n != 3 {
			t.Fatalf("mbind ignored: node %d", n)
		}
	})
}

func TestSetMempolicyDefault(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		tk.SetMempolicy(vm.Interleave(1, 2))
		a, _ := tk.Mmap(8*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if _, err := tk.FaultIn(a, 8*pg, true); err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for i := 0; i < 8; i++ {
			counts[tk.GetNode(a+vm.Addr(i)*pg)]++
		}
		if counts[1]+counts[2] != 8 || counts[1] == 0 || counts[2] == 0 {
			t.Fatalf("process policy not applied: %v", counts)
		}
	})
}

func TestMunmapFreesFrames(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(16*pg, vm.ProtRW, vm.DefaultPolicy(), 0, "buf")
		if _, err := tk.FaultIn(a, 16*pg, true); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Phys.Stats(0).Allocated; got != 16 {
			t.Fatalf("allocated = %d", got)
		}
		if err := tk.Munmap(a, 16*pg); err != nil {
			t.Fatal(err)
		}
		if got := h.k.Phys.Stats(0).Allocated; got != 0 {
			t.Fatalf("allocated after munmap = %d", got)
		}
	})
}

func TestQueryPagesMode(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(4*pg, vm.ProtRW, vm.Bind(2), 0, "buf")
		if _, err := tk.FaultIn(a, 2*pg, true); err != nil {
			t.Fatal(err)
		}
		st := tk.QueryPages([]vm.Addr{a, a + pg, a + 3*pg})
		want := []int{2, 2, StatusNoEnt}
		for i := range want {
			if st[i] != want[i] {
				t.Fatalf("query status = %v, want %v", st, want)
			}
		}
	})
	// Query mode never migrates.
	if h.k.Stats.MovePagesPages != 0 {
		t.Fatal("query mode migrated pages")
	}
}

func TestMbindMoveMigratesExistingPages(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		a, _ := tk.Mmap(8*pg, vm.ProtRW, vm.Bind(0), 0, "buf")
		if _, err := tk.FaultIn(a, 8*pg, true); err != nil {
			t.Fatal(err)
		}
		// Plain mbind only changes future allocations.
		if err := tk.Mbind(a, 8*pg, vm.Bind(3)); err != nil {
			t.Fatal(err)
		}
		if n := tk.GetNode(a); n != 0 {
			t.Fatalf("plain mbind moved pages to %d", n)
		}
		// MPOL_MF_MOVE migrates resident pages too.
		if err := tk.Mbind(a, 8*pg, vm.Bind(3), MbindMove); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if n := tk.GetNode(a + vm.Addr(i)*pg); n != 3 {
				t.Fatalf("page %d on node %d after MF_MOVE", i, n)
			}
		}
	})
}

func TestGetMempolicyRoundTrip(t *testing.T) {
	h := newHarness(false)
	h.run(t, 0, func(tk *Task) {
		tk.SetMempolicy(vm.Interleave(0, 3))
		got := tk.GetMempolicy()
		if !got.Equal(vm.Interleave(0, 3)) {
			t.Fatalf("policy round trip: %+v", got)
		}
		a, _ := tk.Mmap(pg, vm.ProtRW, vm.Preferred(2), 0, "buf")
		vp, err := tk.GetVMAPolicy(a)
		if err != nil {
			t.Fatal(err)
		}
		if !vp.Equal(vm.Preferred(2)) {
			t.Fatalf("vma policy = %+v", vp)
		}
		if _, err := tk.GetVMAPolicy(0xbad000); err == nil {
			t.Fatal("unmapped get_mempolicy accepted")
		}
	})
}
