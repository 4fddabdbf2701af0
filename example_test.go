package numamig_test

import (
	"bytes"
	"encoding/json"
	"fmt"

	"numamig"
	"numamig/internal/artifact"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/tenancy"
)

// ExampleSystem_Run demonstrates kernel next-touch: pages follow the
// thread that touches them after a migrate-on-next-touch mark.
func ExampleSystem_Run() {
	sys := numamig.New(numamig.Config{})
	err := sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, 1<<20, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		nt := sys.NewKernelNT()
		if _, err := nt.Mark(t, buf.Region()); err != nil {
			panic(err)
		}
		t.MigrateTo(12) // node 3
		if err := buf.Access(t, numamig.Stream, false); err != nil {
			panic(err)
		}
		hist, _ := buf.NodeHistogram(t)
		fmt.Println(hist)
	})
	if err != nil {
		panic(err)
	}
	// Output: [0 0 0 256]
}

// ExampleManager shows the joint thread+data migration model of §3.4:
// the scheduler moves a thread and its workset follows lazily, with
// untouched pages never migrating.
func ExampleManager() {
	sys := numamig.New(numamig.Config{})
	mgr := sys.NewManager(numamig.LazyKernel, true)
	err := sys.Run(func(t *numamig.Task) {
		ws := numamig.MustAlloc(t, 64*numamig.PageSize, numamig.Bind(0))
		if err := ws.Prefault(t); err != nil {
			panic(err)
		}
		mgr.Attach(t, ws.Region())
		if err := mgr.MoveThread(t, 4); err != nil { // node 1
			panic(err)
		}
		// Touch only the first half.
		if err := t.AccessRange(ws.Base, ws.Size/2, numamig.Stream, false); err != nil {
			panic(err)
		}
		hist, _ := ws.NodeHistogram(t)
		fmt.Println(hist)
	})
	if err != nil {
		panic(err)
	}
	// Output: [32 32 0 0]
}

// ExampleSystem_EnableAutoNUMA demonstrates automatic NUMA balancing:
// no marks and no madvise — the scanner daemon and hinting faults
// discover the thread move and promote the pages toward it.
func ExampleSystem_EnableAutoNUMA() {
	sys := numamig.New(numamig.Config{})
	bal := sys.EnableAutoNUMA(numamig.AutoNUMAConfig{})
	err := sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, 256*numamig.PageSize, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		t.MigrateTo(12) // node 3; the balancer must notice on its own
		for i := 0; i < 12; i++ {
			if err := buf.Access(t, numamig.Blocked, false); err != nil {
				panic(err)
			}
		}
		hist, _ := buf.NodeHistogram(t)
		fmt.Println(hist)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(bal.Stats.PagesPromoted > 0)
	// Output:
	// [0 0 0 256]
	// true
}

// ExampleSystem_EnableDemotion demonstrates the memory-tiering half:
// a node overcommitted past its watermarks sheds its cold pages
// through the kswapd-style daemons while a swept hot set survives.
func ExampleSystem_EnableDemotion() {
	sys := numamig.New(numamig.Config{
		Nodes:      2,
		MemPerNode: 1024 * numamig.PageSize,
		Demotion:   true, // or sys.EnableDemotion() after New
	})
	err := sys.Run(func(t *numamig.Task) {
		hot := numamig.MustAlloc(t, 64*numamig.PageSize, numamig.Bind(0))
		if err := hot.Prefault(t); err != nil {
			panic(err)
		}
		cold := numamig.MustAlloc(t, 1100*numamig.PageSize, numamig.Preferred(0))
		if err := cold.Prefault(t); err != nil {
			panic(err)
		}
		// Sweeping keeps the hot pages' accessed bits fresh across the
		// daemons' clock scans; the untouched cold set ages out.
		for i := 0; i < 40; i++ {
			if err := hot.Access(t, numamig.Blocked, false); err != nil {
				panic(err)
			}
		}
		hist, _ := hot.NodeHistogram(t)
		fmt.Println(hist[0] == 64)
	})
	if err != nil {
		panic(err)
	}
	st := sys.Stats()
	fmt.Println(st.PagesDemoted > 0, st.PromoteDemoteFlips)
	// Output:
	// true
	// true 0
}

// Example_tieredMemory configures an explicit CXL slow-memory tier —
// two DRAM nodes plus one expander node with its own bandwidth and
// latency class — and shows the tier contract: allocation never lands
// on CXL (the overcommitted first-touch spills across the DRAM tier
// instead), and the slow tier fills only by kswapd demoting the cold
// working set down (slow_tier_resident, read via SlowTierResident).
func Example_tieredMemory() {
	p := numamig.DefaultParams()
	p.TierClasses = []numamig.TierClass{{Name: "dram"}, numamig.CXLTier()}
	p.NodeTier = []int{0, 0, 1} // nodes 0,1 = DRAM; node 2 = CXL
	sys := numamig.New(numamig.Config{
		Nodes:      3,
		MemPerNode: 512 * numamig.PageSize,
		Demotion:   true,
		Params:     &p,
	})
	err := sys.Run(func(t *numamig.Task) {
		// Overcommit node 0: the spill crosses the DRAM tier, never CXL.
		cold := numamig.MustAlloc(t, 640*numamig.PageSize, numamig.Preferred(0))
		if err := cold.Prefault(t); err != nil {
			panic(err)
		}
		fmt.Println("on CXL after allocation:", sys.SlowTierResident())
		// Sweep a small hot set; the cold buffer ages out and kswapd
		// demotes it to the next tier down — the CXL node.
		hot := numamig.MustAlloc(t, 32*numamig.PageSize, numamig.Preferred(0))
		if err := hot.Prefault(t); err != nil {
			panic(err)
		}
		for i := 0; i < 60; i++ {
			if err := hot.Access(t, numamig.Blocked, false); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("demoted down to CXL:", sys.SlowTierResident() > 0)
	// Output:
	// on CXL after allocation: 0
	// demoted down to CXL: true
}

// Example_promoteRateLimit demonstrates
// Params.PromoteRateLimitMBps, the simulated
// numa_balancing_promote_rate_limit_MBps: cold pages are demoted to
// the CXL tier, the thread turns hot on them, and AutoNUMA promotion
// back to DRAM is throttled by the slow node's token bucket —
// Stats.PromoteRateLimited counts the dropped orders, which retry on
// later hinting faults.
func Example_promoteRateLimit() {
	run := func(mbps float64) (promoted, limited uint64) {
		p := numamig.DefaultParams()
		p.TierClasses = []numamig.TierClass{{Name: "dram"}, numamig.CXLTier()}
		p.NodeTier = []int{0, 0, 1}
		p.PromoteRateLimitMBps = mbps
		sys := numamig.New(numamig.Config{
			Nodes:      3,
			MemPerNode: 512 * numamig.PageSize,
			Demotion:   true,
			Params:     &p,
		})
		sys.EnableAutoNUMA(numamig.AutoNUMAConfig{})
		err := sys.Run(func(t *numamig.Task) {
			cold := numamig.MustAlloc(t, 640*numamig.PageSize, numamig.Preferred(0))
			if err := cold.Prefault(t); err != nil {
				panic(err)
			}
			hot := numamig.MustAlloc(t, 32*numamig.PageSize, numamig.Preferred(0))
			if err := hot.Prefault(t); err != nil {
				panic(err)
			}
			// Phase 1: the cold buffer demotes down to CXL.
			for i := 0; i < 60; i++ {
				if err := hot.Access(t, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
			// Phase 2: now it is hot — promotion pulls it back up,
			// against the token bucket.
			for i := 0; i < 30; i++ {
				if err := cold.Access(t, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
		})
		if err != nil {
			panic(err)
		}
		st := sys.Stats()
		return st.NumaPagesPromoted, st.PromoteRateLimited
	}
	freePromoted, freeLimited := run(0)
	ratePromoted, rateLimited := run(1)
	fmt.Println("unlimited run throttled:", freeLimited != 0)
	fmt.Println("limited run throttled:", rateLimited > 0)
	fmt.Println("limiter slowed promotion:", ratePromoted < freePromoted)
	// Output:
	// unlimited run throttled: false
	// limited run throttled: true
	// limiter slowed promotion: true
}

// Example_adaptiveRateLimit demonstrates the closed-loop promotion
// rate-limit controller (internal/control): instead of a fixed
// Params.PromoteRateLimitMBps, an in-sim daemon subscribes to the
// telemetry bus and widens the limit only while RateLimitDrop events
// show the token bucket is the bottleneck, decaying it back when
// demand stops. Starting from the floor, it holds only bandwidth the
// workload demonstrably asked for.
func Example_adaptiveRateLimit() {
	p := numamig.DefaultParams()
	p.TierClasses = []numamig.TierClass{{Name: "dram"}, numamig.CXLTier()}
	p.NodeTier = []int{0, 0, 1}
	sys := numamig.New(numamig.Config{
		Nodes:      3,
		MemPerNode: 512 * numamig.PageSize,
		Demotion:   true,
		Params:     &p,
	})
	sys.EnableAutoNUMA(numamig.AutoNUMAConfig{})
	ctrl := sys.EnableAdaptiveRateLimit()
	err := sys.Run(func(t *numamig.Task) {
		cold := numamig.MustAlloc(t, 640*numamig.PageSize, numamig.Preferred(0))
		if err := cold.Prefault(t); err != nil {
			panic(err)
		}
		hot := numamig.MustAlloc(t, 32*numamig.PageSize, numamig.Preferred(0))
		if err := hot.Prefault(t); err != nil {
			panic(err)
		}
		// Demote the cold buffer down to CXL, then turn hot on it so
		// promotion demand hits the controller's bucket.
		for i := 0; i < 60; i++ {
			if err := hot.Access(t, numamig.Blocked, false); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 30; i++ {
			if err := cold.Access(t, numamig.Blocked, false); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("controller ticked:", ctrl.Stats.Ticks > 0)
	fmt.Println("saw drops and widened:", ctrl.Stats.Drops > 0 && ctrl.Stats.Widens > 0)
	fmt.Println("peak above the floor:", ctrl.Stats.PeakMBps > 1)
	fmt.Println("still rate-limited:", sys.Stats().PromoteRateLimited > 0)
	// Output:
	// controller ticked: true
	// saw drops and widened: true
	// peak above the floor: true
	// still rate-limited: true
}

// Example_traceExport demonstrates the chrome-trace exporter: a
// telemetry.Recorder subscribed to the System's bus captures the full
// deterministic event stream, and WriteTrace renders it as JSON that
// chrome://tracing or Perfetto loads directly (numabench surfaces the
// same path as `-grid ... -scenario <id> -trace out.json`).
func Example_traceExport() {
	sys := numamig.New(numamig.Config{MemPerNode: 512 * numamig.PageSize})
	rec := telemetry.Record(sys.Bus())
	err := sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, 64*numamig.PageSize, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		if err := buf.MoveTo(t, 1, true); err != nil {
			panic(err)
		}
	})
	if err != nil {
		panic(err)
	}
	var out bytes.Buffer
	if err := rec.WriteTrace(&out); err != nil {
		panic(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &tf); err != nil {
		panic(err)
	}
	topics := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "M" { // skip process/thread metadata
			topics[ev.Name] = true
		}
	}
	fmt.Println("recorded events:", len(rec.Events) > 0)
	fmt.Println("faults in trace:", topics["PageFault"])
	fmt.Println("migration batch in trace:", topics["MigrateBatch"])
	// Output:
	// recorded events: true
	// faults in trace: true
	// migration batch in trace: true
}

// Example_multiTenantServe demonstrates the multi-tenant serving layer
// (internal/tenancy): a tenant admitted with a cgroup-style fast-tier
// cap has its over-cap faults redirected down the demotion path onto
// the CXL tier — never spilled across the DRAM tier, never a cap
// violation — and its ledger drains to zero once it unmaps and exits.
// The serve scenario family grids this machinery under an open-system
// arrival schedule with per-class SLO columns; see workload.Serve.
func Example_multiTenantServe() {
	p := numamig.DefaultParams()
	p.TierClasses = []numamig.TierClass{{Name: "dram"}, numamig.CXLTier()}
	p.NodeTier = []int{0, 0, 1} // nodes 0,1 = DRAM; node 2 = CXL
	sys := numamig.New(numamig.Config{
		Nodes:      3,
		MemPerNode: 512 * numamig.PageSize,
		Params:     &p,
	})
	ledger := sys.Kernel.Ten
	err := sys.Run(func(t *numamig.Task) {
		// Admit one latency-sensitive tenant capped at 64 fast pages,
		// then fault in a 128-page working set: the first 64 pages land
		// on DRAM, the rest are redirected down to the expander.
		ten := ledger.Admit(0, "tenant0", tenancy.ClassLatencySensitive, 64)
		pr := sys.Kernel.NewProcess("tenant0")
		pr.SetTenant(ten)
		wg := sim.NewWaitGroup(sys.Eng, 1)
		pr.Spawn("tenant0", 0, func(t *numamig.Task) {
			defer wg.Done()
			buf := numamig.MustAlloc(t, 128*numamig.PageSize, numamig.FirstTouch())
			if err := buf.Prefault(t); err != nil {
				panic(err)
			}
			fmt.Println("fast-tier resident at cap:", ten.FastResident())
			fmt.Println("redirected to CXL:", ten.Resident()-ten.FastResident())
			if err := buf.Free(t); err != nil {
				panic(err)
			}
		})
		wg.Wait(t.P)
		fmt.Println("drained at exit:", ledger.Exit(ten))
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("cap violations:", ledger.CapViolations)
	// Output:
	// fast-tier resident at cap: 64
	// redirected to CXL: 64
	// drained at exit: 0
	// cap violations: 0
}

// ExampleSystem_Stats demonstrates reading the kernel and engine
// counters the experiment grid derives its columns from: pages moved,
// faults, syscalls, bytes copied between nodes.
func ExampleSystem_Stats() {
	sys := numamig.New(numamig.Config{})
	err := sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, 128*numamig.PageSize, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		if err := buf.MoveTo(t, 2, true); err != nil { // patched move_pages
			panic(err)
		}
	})
	if err != nil {
		panic(err)
	}
	st := sys.Stats()
	eng := sys.Migrator(numamig.Patched)
	fmt.Println(st.MovePagesCalls, st.MovePagesPages)
	fmt.Println(eng.Stats.PagesMoved, int(eng.Stats.BytesMoved)/numamig.PageSize)
	fmt.Println(sys.MigratedBytes() == eng.Stats.BytesMoved)
	// Output:
	// 1 128
	// 128 128
	// true
}

// ExampleUserNT shows the user-space implementation: one touch anywhere
// in a marked region migrates the whole region (the library knows the
// workset structure).
func ExampleUserNT() {
	sys := numamig.New(numamig.Config{})
	u := sys.NewUserNT(true) // patched move_pages
	err := sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, 32*numamig.PageSize, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		if err := u.Mark(t, buf.Region()); err != nil {
			panic(err)
		}
		t.MigrateTo(9) // node 2
		if err := t.Touch(buf.Base+17*numamig.PageSize, false); err != nil {
			panic(err)
		}
		hist, _ := buf.NodeHistogram(t)
		node, _ := u.Placement(buf.Base)
		fmt.Println(hist, node)
	})
	if err != nil {
		panic(err)
	}
	// Output: [0 0 32 0] 2
}

// Example_artifactCampaign runs a miniature paper-artifact campaign in
// memory: two fixed-seed repeats of the quick migration sweep on a
// 2-node machine, grouped statistics, and the patched-vs-unpatched
// speedup. Fixed-seed repeats are byte-identical replicas, so every
// cell's spread is exactly zero and the output is stable everywhere.
func Example_artifactCampaign() {
	cfg := artifact.Config{
		Schema:     artifact.ConfigSchema,
		Name:       "example",
		Families:   []string{"migration"},
		Quick:      true,
		Nodes:      []int{2},
		Repeats:    2,
		BaseSeed:   1,
		SeedPolicy: artifact.SeedFixed,
		Speedups: []artifact.SpeedupSpec{
			{Name: "pv", Metric: "mbps", Numer: "patched", Denom: "unpatched"},
		},
	}
	out, err := artifact.RunCampaign(cfg, artifact.RunOptions{Parallel: 4})
	if err != nil {
		panic(err)
	}
	an := out.Analysis
	c := an.CellByID("migration/patched/sync/p1024/n2")
	ms := c.Metric("mbps")
	fmt.Println(an.Scenarios, "cells x", cfg.Repeats, "repeats =", an.RowCount, "rows")
	fmt.Printf("%s: mean %.1f MB/s over %d repeats, std %.1f\n", c.ID, ms.Mean, ms.N, ms.Std)
	for _, sp := range an.Speedups {
		if sp.ID == c.ID {
			fmt.Printf("patched/unpatched at p1024: %.2fx\n", sp.Ratio)
		}
	}
	fmt.Println("max relative std:", an.MaxRelStd)
	// Output:
	// 10 cells x 2 repeats = 20 rows
	// migration/patched/sync/p1024/n2: mean 466.4 MB/s over 2 repeats, std 0.0
	// patched/unpatched at p1024: 1.58x
	// max relative std: 0
}
