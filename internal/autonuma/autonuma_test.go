package autonuma_test

import (
	"fmt"
	"testing"

	"numamig/internal/autonuma"
	"numamig/internal/model"
	"numamig/internal/sim"

	numamig "numamig"
)

const pg = model.PageSize

// sweep touches the whole buffer with the blocked pattern.
func sweep(t *testing.T, tk *numamig.Task, buf *numamig.Buffer) {
	t.Helper()
	if err := buf.Access(tk, numamig.Blocked, false); err != nil {
		t.Fatal(err)
	}
}

// TestConvergence is the subsystem's core guarantee: a hot buffer left
// on a remote node ends up ≥90% on the accessor's node within a
// bounded number of scan periods, with no application hint.
func TestConvergence(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	bal := sys.EnableAutoNUMA(autonuma.Config{})
	const pages = 512
	// Bound: the scanner needs ceil(pages/ScanPages) ticks to arm the
	// buffer once, plus threshold warm-up and one re-arm round for the
	// pages the threshold filter let through unpromoted. Give it 8 full
	// coverage rounds before declaring failure.
	cover := (pages + sys.Kernel.P.NumaScanPages - 1) / sys.Kernel.P.NumaScanPages
	maxPeriods := 8 * cover

	const want = pages * 9 / 10
	err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, pages*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(sys.Machine.Nodes[3].Cores[0]) // farthest node, no hints
		deadline := tk.P.Now() + sim.Time(maxPeriods)*sys.Kernel.P.NumaScanPeriodMax
		for tk.P.Now() < deadline {
			sweep(t, tk, buf)
			hist, absent := buf.NodeHistogram(tk)
			if absent != 0 {
				t.Fatalf("absent pages: %d", absent)
			}
			if hist[3] >= want {
				return
			}
		}
		hist, _ := buf.NodeHistogram(tk)
		t.Errorf("no convergence within %d scan periods: hist=%v (want >=%d on node 3)",
			maxPeriods, hist, want)
	})
	if err != nil {
		t.Fatal(err)
	}
	if bal.Stats.ScanTicks == 0 || bal.Stats.PagesArmed == 0 {
		t.Fatalf("scanner never worked: %+v", bal.Stats)
	}
	if bal.Stats.PagesPromoted < want {
		t.Fatalf("promoted %d pages, want >= %d", bal.Stats.PagesPromoted, want)
	}
	if got := sys.Stats().NumaPagesPromoted; got < want {
		t.Fatalf("kernel counted %d promotions", got)
	}
}

// TestDeterminism: two identical systems produce identical virtual end
// times and statistics — the property the parallel grid runner rests
// on.
func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, autonuma.Stats, uint64) {
		sys := numamig.New(numamig.Config{Seed: 7})
		bal := sys.EnableAutoNUMA(autonuma.Config{})
		err := sys.Run(func(tk *numamig.Task) {
			buf := numamig.MustAlloc(tk, 256*pg, numamig.Bind(0))
			if err := buf.Prefault(tk); err != nil {
				t.Fatal(err)
			}
			tk.MigrateTo(sys.Machine.Nodes[2].Cores[0])
			for i := 0; i < 12; i++ {
				sweep(t, tk, buf)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys.Now(), bal.Stats, sys.Stats().NumaHintFaults
	}
	t1, s1, h1 := run()
	t2, s2, h2 := run()
	if t1 != t2 || s1 != s2 || h1 != h2 {
		t.Fatalf("runs diverge:\n t=%v stats=%+v hints=%d\n t=%v stats=%+v hints=%d",
			t1, s1, h1, t2, s2, h2)
	}
}

// TestScanPeriodBackoff: once the workload is local, quiet windows
// double the period toward the max; remote faults pull it back down.
func TestScanPeriodBackoff(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	bal := sys.EnableAutoNUMA(autonuma.Config{})
	err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, 128*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		// All-local accesses from node 0: every window is quiet.
		deadline := tk.P.Now() + 20*sys.Kernel.P.NumaScanPeriodMax
		for tk.P.Now() < deadline {
			sweep(t, tk, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bal.Period() != sys.Kernel.P.NumaScanPeriodMax {
		t.Fatalf("period %v after quiet run, want backed off to %v", bal.Period(), sys.Kernel.P.NumaScanPeriodMax)
	}
	if bal.Stats.Backoffs == 0 {
		t.Fatal("no backoffs recorded")
	}
	if bal.Stats.RemoteFaults != 0 {
		t.Fatalf("local-only run took %d remote faults", bal.Stats.RemoteFaults)
	}
	if bal.Stats.PagesPromoted != 0 {
		t.Fatalf("local-only run promoted %d pages", bal.Stats.PagesPromoted)
	}
}

// TestDaemonRetires: the scanner exits after the last thread and the
// engine drains (Run returns without deadlock); Stop unregisters the
// hook immediately.
func TestDaemonRetires(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	bal := sys.EnableAutoNUMA(autonuma.Config{})
	if err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, 64*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		sweep(t, tk, buf)
	}); err != nil {
		t.Fatalf("engine did not drain after app exit: %v", err)
	}
	bal.Stop()
	if sys.Proc.NumaBalancer() != nil {
		t.Fatal("Stop left the balancer registered")
	}
}

// pingPong runs two threads on different nodes alternately sweeping
// one shared buffer homed on node 0 and returns the balancer stats:
// the canonical shared-page ping-pong that the last-toucher filter is
// meant to damp.
func pingPong(t *testing.T, cfg autonuma.Config) autonuma.Stats {
	t.Helper()
	sys := numamig.New(numamig.Config{Seed: 11})
	bal := sys.EnableAutoNUMA(cfg)
	const pages = 128
	var buf *numamig.Buffer
	ready := sim.NewEvent(sys.Eng)
	sys.Proc.Spawn("setup", 0, func(tk *numamig.Task) {
		buf = numamig.MustAlloc(tk, pages*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		ready.Fire()
	})
	for i, node := range []numamig.NodeID{1, 2} {
		core := sys.Machine.Nodes[node].Cores[0]
		sys.Proc.Spawn(fmt.Sprintf("pingpong%d", i), core, func(tk *numamig.Task) {
			ready.Wait(tk.P)
			deadline := tk.P.Now() + 24*sys.Kernel.P.NumaScanPeriodMax
			for tk.P.Now() < deadline {
				sweep(t, tk, buf)
			}
		})
	}
	if err := sys.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	return bal.Stats
}

// TestLastToucherDampsPingPong: with the filter on (default), a page
// alternately touched from two nodes never builds the two-consecutive-
// fault streak, so promotions are damped by an order of magnitude
// against the unfiltered balancer chasing every toucher.
func TestLastToucherDampsPingPong(t *testing.T) {
	filtered := pingPong(t, autonuma.Config{})
	unfiltered := pingPong(t, autonuma.Config{NoLastToucher: true})
	if unfiltered.PagesPromoted == 0 {
		t.Fatal("unfiltered ping-pong promoted nothing; the workload is not contending")
	}
	if filtered.PingPongSkips == 0 {
		t.Fatal("filter never withheld a promotion")
	}
	if filtered.PagesPromoted*4 > unfiltered.PagesPromoted {
		t.Fatalf("filter barely damped the ping-pong: %d promotions filtered vs %d unfiltered",
			filtered.PagesPromoted, unfiltered.PagesPromoted)
	}
	if unfiltered.PingPongSkips != 0 {
		t.Fatalf("disabled filter still skipped %d promotions", unfiltered.PingPongSkips)
	}
}

// TestSingleOwnerStillConverges: the filter must not starve the
// common case — a page with one consistent toucher builds its streak
// on the second fault and promotes (TestConvergence covers the full
// guarantee; this pins the streak bookkeeping directly).
func TestSingleOwnerStillConverges(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	bal := sys.EnableAutoNUMA(autonuma.Config{})
	err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, 64*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(sys.Machine.Nodes[3].Cores[0])
		deadline := tk.P.Now() + 16*sys.Kernel.P.NumaScanPeriodMax
		for tk.P.Now() < deadline {
			sweep(t, tk, buf)
		}
		hist, _ := buf.NodeHistogram(tk)
		if hist[3] < 64*9/10 {
			t.Fatalf("single owner did not converge under the filter: hist=%v", hist)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bal.Stats.PagesPromoted == 0 {
		t.Fatal("no promotions despite a single consistent toucher")
	}
}

// TestRectFaultPathServicesHints: the blocked-matrix drivers fault
// through FaultInRect, not FaultIn; hinting faults must be serviced
// there too, or balancing is silently inert for Rect-based workloads.
func TestRectFaultPathServicesHints(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	sys.EnableAutoNUMA(autonuma.Config{})
	err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, 256*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		rect := numamig.Rect{Base: buf.Base, RowBytes: 16 * pg, Stride: 16 * pg, Rows: 16}
		tk.MigrateTo(sys.Machine.Nodes[2].Cores[0])
		deadline := tk.P.Now() + 16*sys.Kernel.P.NumaScanPeriodMax
		for tk.P.Now() < deadline {
			if err := tk.AccessRect(rect, numamig.Blocked, false); err != nil {
				t.Fatal(err)
			}
		}
		hist, _ := buf.NodeHistogram(tk)
		if hist[2] < 256*9/10 {
			t.Fatalf("rect path did not converge: hist=%v", hist)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().NumaHintFaults == 0 {
		t.Fatal("rect faults never reached the hinting path")
	}
}

// TestReplicatedPagesNotArmed: a replica set owns its primary frame;
// the scanner must not arm replicated pages (promotion would free a
// frame the set still references and strip its write protection).
func TestReplicatedPagesNotArmed(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	sys.EnableAutoNUMA(autonuma.Config{})
	err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, 64*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.ReplicateRange(buf.Base, buf.Size); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(sys.Machine.Nodes[3].Cores[0])
		deadline := tk.P.Now() + 8*sys.Kernel.P.NumaScanPeriodMax
		for tk.P.Now() < deadline {
			if err := tk.AccessRange(buf.Base, buf.Size, numamig.Blocked, false); err != nil {
				t.Fatal(err)
			}
		}
		// The primaries stayed home: replication, not balancing, serves
		// the remote reader.
		hist, _ := buf.NodeHistogram(tk)
		if hist[0] != 64 {
			t.Fatalf("replicated primaries moved: hist=%v", hist)
		}
		// Writing still collapses cleanly (no double free / stale frame).
		if err := tk.Touch(buf.Base, true); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().NumaPagesPromoted; got != 0 {
		t.Fatalf("replicated pages were promoted: %d", got)
	}
}

// TestPinnedPagesSurviveBalancing: the scanner never arms pinned pages
// (and the engine would EBUSY any promotion racing a pin), so balancing
// leaves them in place while the rest of the buffer follows the thread.
func TestPinnedPagesSurviveBalancing(t *testing.T) {
	sys := numamig.New(numamig.Config{})
	sys.EnableAutoNUMA(autonuma.Config{})
	err := sys.Run(func(tk *numamig.Task) {
		buf := numamig.MustAlloc(tk, 64*pg, numamig.Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.PinRange(buf.Base, 8*pg); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(sys.Machine.Nodes[1].Cores[0])
		deadline := tk.P.Now() + sim.FromSeconds(0.05)
		for tk.P.Now() < deadline {
			sweep(t, tk, buf)
		}
		hist, _ := buf.NodeHistogram(tk)
		if hist[0] < 8 {
			t.Fatalf("pinned pages moved: hist=%v", hist)
		}
		if hist[1] < 48 {
			t.Fatalf("unpinned pages did not follow: hist=%v", hist)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
