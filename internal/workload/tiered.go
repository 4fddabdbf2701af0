package workload

import (
	"fmt"

	"numamig/internal/autonuma"
	"numamig/internal/control"
	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"

	numamig "numamig"
)

// The tiered workload: the explicit CXL slow-memory tier end to end.
// The machine is FastNodes DRAM nodes plus SlowNodes CXL expander
// nodes (model.Params.NodeTier + CXLTier bandwidth/latency classes on
// the fluid network). One compute thread on node 0 owns a working
// buffer that overcommits its node; the placement layer spills the
// overflow across the DRAM tier — never onto CXL, which is
// demotion-only — and the kswapd daemons demote what goes cold to the
// next tier down, populating the slow tier. The thread then turns hot
// on a window of the demoted region: AutoNUMA hinting faults promote
// the window back up to DRAM, throttled by the per-node promotion
// token bucket (Params.PromoteRateLimitMBps), so the window's
// slow-tier residency falls at the configured rate while
// kern.Stats.PromoteRateLimited counts the throttled orders.
//
// Two invariants ride along and are checked by the exp runner:
//
//   - demotion-only allocation: across the whole run, the only frames
//     *allocated* (rather than migrated) on slow-tier nodes belong to
//     the one buffer explicitly bound to the CXL nodes
//     (DirectSlowAllocs == SlowBoundPages); everything else arrives by
//     demotion;
//   - the strict-bind nodemask gate: a Bind(0) ballast must never be
//     observed outside node 0, however hard the node is pressed.

// TieredConfig parameterizes one explicit-slow-tier run.
type TieredConfig struct {
	// FastNodes is the DRAM node count (0: 2); slow nodes are appended
	// after them, so node ids [0, FastNodes) are DRAM.
	FastNodes int
	// SlowNodes is the CXL node count (0: 1). FastNodes+SlowNodes must
	// be a topology.Grid-supported machine size (<= 8).
	SlowNodes int
	// Cores is cores per node (0: 4).
	Cores int
	// NodePages is per-DRAM-node memory in 4 KiB frames (0: 1024).
	NodePages int
	// SlowRatio sizes each CXL node as a multiple of NodePages
	// (0: 1.0) — the DRAM:CXL capacity ratio axis.
	SlowRatio float64
	// RateLimitMBps is Params.PromoteRateLimitMBps (0: unlimited).
	RateLimitMBps float64
	// Adaptive replaces the static rate limit with the closed-loop
	// controller (internal/control): the limit starts at the
	// controller's floor and widens only on observed rate-limit drops.
	// RateLimitMBps is ignored when set.
	Adaptive bool
	// Hysteresis enables promotion hysteresis (the model default);
	// false zeroes Params.PromotionHysteresisPeriods.
	Hysteresis bool
	// Seed drives the simulation (0: 1).
	Seed int64
}

func (c TieredConfig) withDefaults() TieredConfig {
	if c.FastNodes == 0 {
		c.FastNodes = 2
	}
	if c.SlowNodes == 0 {
		c.SlowNodes = 1
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.NodePages == 0 {
		c.NodePages = 1024
	}
	if c.SlowRatio == 0 {
		c.SlowRatio = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TieredResult is one run's outcome.
type TieredResult struct {
	// Dur is the virtual time of the promote phase; Bytes the bytes
	// swept during it.
	Dur   sim.Time
	Bytes int64
	// SlowPeak is the slow-tier resident page count after the demote
	// phase; SlowResident the same gauge when the run ended.
	SlowPeak     int64
	SlowResident int64
	// WindowSlowBefore/After count the promote window's pages resident
	// on the slow tier before and after the promote phase: the
	// "slow_tier_resident falling" signal (After < Before), dampened
	// by the rate limiter.
	WindowSlowBefore int
	WindowSlowAfter  int
	// RateLimited counts promotions dropped by the token bucket.
	RateLimited uint64
	// DirectSlowAllocs counts frames allocated — not migrated — on
	// slow-tier nodes over the whole run; must equal SlowBoundPages
	// (the demotion-only invariant).
	DirectSlowAllocs int64
	SlowBoundPages   int
	// TierDown/TierUp snapshot the engine's cross-tier traffic.
	TierDown uint64
	TierUp   uint64
	// Absent counts non-present working-buffer pages (must be 0).
	Absent int
	// BindHist is the strict-bind node-0 ballast's final histogram;
	// BindOffMask counts its pages outside the mask (must be 0).
	BindHist    []int
	BindOffMask int
	// Stats snapshots the kernel counters; Auto the balancer's.
	Stats      kern.Stats
	Auto       autonuma.Stats
	MigratedMB float64
	// Windowed telemetry columns (telemetry.Windows over the event
	// bus, window width 5 x KswapdPeriod): peak per-window fault rate,
	// peak per-window migration bandwidth, and the p99 of the
	// slow-tier residency gauge sampled at window closes.
	FaultRateHz       float64
	MigrateBWPeakMBps float64
	P99SlowResident   float64
	// Control snapshots the adaptive controller's run (zero unless
	// Config.Adaptive).
	Control control.Stats
}

// Tiered builds a deterministic DRAM+CXL System and runs the
// demote-then-promote workload with AutoNUMA and the demotion daemons
// on.
func Tiered(cfg TieredConfig) (TieredResult, error) {
	const demoteEpochs, promoteEpochs, sweeps = 12, 12, 4 // phase lengths; sweeps per epoch
	cfg = cfg.withDefaults()
	var res TieredResult
	if cfg.FastNodes < 2 {
		return res, fmt.Errorf("workload: tiered needs >= 2 DRAM nodes, got %d", cfg.FastNodes)
	}
	if cfg.SlowNodes < 1 {
		return res, fmt.Errorf("workload: tiered needs >= 1 slow node, got %d", cfg.SlowNodes)
	}
	nodes := cfg.FastNodes + cfg.SlowNodes
	if nodes > 8 {
		return res, fmt.Errorf("workload: tiered machine has %d nodes, topology supports <= 8", nodes)
	}

	p := model.Default()
	if !cfg.Hysteresis {
		p.PromotionHysteresisPeriods = 0
	}
	p.TierClasses = []model.TierClass{{Name: "dram"}, model.CXLTier()}
	p.NodeTier = make([]int, nodes)
	nodeMem := make([]int64, nodes)
	for n := 0; n < nodes; n++ {
		nodeMem[n] = int64(cfg.NodePages) * model.PageSize
		if n >= cfg.FastNodes {
			p.NodeTier[n] = 1
			nodeMem[n] = int64(float64(cfg.NodePages)*cfg.SlowRatio) * model.PageSize
		}
	}
	p.PromoteRateLimitMBps = cfg.RateLimitMBps

	sys := numamig.New(numamig.Config{
		Nodes:        nodes,
		CoresPerNode: cfg.Cores,
		MemPerNode:   int64(cfg.NodePages) * model.PageSize,
		NodeMem:      nodeMem,
		Seed:         cfg.Seed,
		Demotion:     true,
		Params:       &p,
	})
	bal := sys.EnableAutoNUMA(autonuma.Config{})
	var ctrl *control.Controller
	if cfg.Adaptive {
		ctrl = sys.EnableAdaptiveRateLimit()
	}
	win := telemetry.NewWindows(sys.Bus(), 5*p.KswapdPeriod, sys.SlowTierResident)

	slowIDs := make([]topology.NodeID, 0, cfg.SlowNodes)
	for n := cfg.FastNodes; n < nodes; n++ {
		slowIDs = append(slowIDs, topology.NodeID(n))
	}
	onSlow := func(n int) bool { return n >= cfg.FastNodes }

	hotPages := cfg.NodePages / 16
	bindPages := cfg.NodePages / 16
	workPages := cfg.NodePages
	windowPages := cfg.NodePages / 4
	res.SlowBoundPages = cfg.NodePages / 16

	err := sys.Run(func(t *numamig.Task) {
		// Strict-bind node-0 ballast: cold throughout; the nodemask gate
		// must hold it on node 0 (its only demotion tier is CXL, outside
		// the mask, so every candidate is a KswapdMaskSkips).
		bind := numamig.MustAlloc(t, int64(bindPages)*model.PageSize, numamig.Bind(0))
		if err := bind.Prefault(t); err != nil {
			panic(err)
		}
		// Hot keepalive: swept continuously so the thread keeps making
		// progress (and virtual time advances) through both phases.
		// Pinned (an mlocked hot set): on a small CXL node the scarce
		// demotion headroom must go to the cold working set, not to
		// keepalive pages the clock scan happens to catch between
		// sweeps.
		hot := numamig.MustAlloc(t, int64(hotPages)*model.PageSize, numamig.Preferred(0))
		if err := hot.Prefault(t); err != nil {
			panic(err)
		}
		if _, err := t.PinRange(hot.Base, hot.Size); err != nil {
			panic(err)
		}
		// Working buffer: overcommits node 0; the spill lands on the
		// DRAM tier (never CXL) and the cold remainder demotes down.
		work := numamig.MustAlloc(t, int64(workPages)*model.PageSize, numamig.Preferred(0))
		if err := work.Prefault(t); err != nil {
			panic(err)
		}
		// The one explicit slow binding: the only pages allowed to be
		// *allocated* on the CXL nodes.
		slowBound := numamig.MustAlloc(t, int64(res.SlowBoundPages)*model.PageSize, numamig.Bind(slowIDs...))
		if err := slowBound.Prefault(t); err != nil {
			panic(err)
		}

		// Demote phase: the working buffer is cold; kswapd ages it and
		// demotes it to the next tier down.
		for e := 0; e < demoteEpochs; e++ {
			for s := 0; s < sweeps; s++ {
				if err := hot.Access(t, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
		}
		res.SlowPeak = sys.SlowTierResident()

		winBase := work.Base
		winSize := int64(windowPages) * model.PageSize
		for _, n := range t.GetNodes(winBase, winSize) {
			if n >= 0 && onSlow(n) {
				res.WindowSlowBefore++
			}
		}

		// Promote phase: the window over the demoted region turns hot;
		// AutoNUMA pulls it back up through the rate-limited bucket.
		start := t.P.Now()
		for e := 0; e < promoteEpochs; e++ {
			for s := 0; s < sweeps; s++ {
				if err := t.AccessRange(winBase, winSize, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
		}
		res.Dur = t.P.Now() - start

		for _, n := range t.GetNodes(winBase, winSize) {
			if n >= 0 && onSlow(n) {
				res.WindowSlowAfter++
			}
		}
		for _, n := range t.GetNodes(work.Base, work.Size) {
			if n < 0 {
				res.Absent++
			}
		}
		res.BindHist, _ = bind.NodeHistogram(t)
		for n, c := range res.BindHist {
			if n != 0 {
				res.BindOffMask += c
			}
		}
	})
	if err != nil {
		return res, err
	}
	res.Bytes = promoteEpochs * sweeps * int64(windowPages) * model.PageSize
	res.SlowResident = sys.SlowTierResident()
	res.Stats = sys.Stats()
	res.RateLimited = res.Stats.PromoteRateLimited
	for _, id := range slowIDs {
		st := sys.Kernel.Phys.Stats(id)
		res.DirectSlowAllocs += st.Cumulative - st.MigratedIn
	}
	eng := sys.Migrator(numamig.Patched)
	res.TierDown = eng.Stats.PagesTierDown
	res.TierUp = eng.Stats.PagesTierUp
	res.MigratedMB = sys.MigratedBytes() / 1e6
	res.Auto = bal.Stats
	ws := win.Finalize()
	res.FaultRateHz = ws.FaultRateHz
	res.MigrateBWPeakMBps = ws.MigrateBWPeakMBps
	res.P99SlowResident = ws.P99SlowResident
	if ctrl != nil {
		res.Control = ctrl.Stats
	}
	return res, nil
}
