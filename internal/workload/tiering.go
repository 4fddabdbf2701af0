package workload

import (
	"fmt"

	"numamig/internal/autonuma"
	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"

	numamig "numamig"
)

// The tiering workload: the rotating-hot-set regime where AutoNUMA
// promotion and kswapd demotion chase each other. One compute thread
// on node 0 owns a large working buffer that starts remote
// (interleaved over the other nodes) while cold ballast keeps node 0
// hovering at its watermarks. Each epoch the thread sweeps a hot
// window of the buffer, then the window slides: AutoNUMA promotes the
// window into node 0, the demotion daemons evict what the window left
// behind to make room, and the pages at the trailing edge — promoted
// moments ago, suddenly unreferenced — are exactly the ones naive
// demotion ships right back out (a promote/demote flip). Promotion
// hysteresis protects them for a few scan periods, which is enough
// for the flip count to collapse; the run also carries a strict-bind
// node-0 ballast that is cold the whole time, verifying the demotion
// scan's nodemask gate (those pages must never leave node 0, however
// hard the node is pressed).

// TieringConfig parameterizes one rotating-hot-set run.
type TieringConfig struct {
	// Nodes is the machine size (0: 4); must be >= 2.
	Nodes int
	// Cores is cores per node (0: 4).
	Cores int
	// NodePages is per-node memory in 4 KiB frames (0: 1024 = 4 MiB).
	NodePages int
	// Seed drives the simulation (0: 1).
	Seed int64
	// Hysteresis enables promotion hysteresis (the model default);
	// false zeroes Params.PromotionHysteresisPeriods so freshly
	// promoted pages are demotable immediately. The flip-counting
	// window (Params.FlipWindowPeriods) stays at its default either
	// way, so the two configurations measure the same telemetry.
	Hysteresis bool
}

func (c TieringConfig) withDefaults() TieringConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.NodePages == 0 {
		c.NodePages = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TieringResult is one run's outcome.
type TieringResult struct {
	// Dur is the virtual time of the measured epochs (after setup).
	Dur sim.Time
	// Bytes is the hot bytes swept over the measured epochs.
	Bytes int64
	// Flips is the promote/demote ping-pong count: pages demoted within
	// Params.FlipWindowPeriods of their promotion.
	Flips uint64
	// HotLocal is the fraction of the final hot window resident on the
	// compute thread's node when the run ended.
	HotLocal float64
	// Absent counts non-present working-buffer pages (must be 0).
	Absent int
	// BindHist is the strict-bind ballast's final node histogram;
	// BindOffMask counts its pages found outside the bind nodemask
	// (must be 0: the demotion scan's nodemask gate).
	BindHist    []int
	BindOffMask int
	// Demoted/DemotedCold snapshot the daemon's tier traffic.
	Demoted     uint64
	DemotedCold uint64
	// Stats snapshots the kernel counters; Auto the balancer's.
	Stats      kern.Stats
	Auto       autonuma.Stats
	MigratedMB float64
}

// Tiering builds a fresh deterministic System and runs the
// rotating-hot-set workload with AutoNUMA and the demotion daemons on.
func Tiering(cfg TieringConfig) (TieringResult, error) {
	const epochs, sweeps = 24, 6 // sweep-then-slide rounds, whole-window sweeps per round
	cfg = cfg.withDefaults()
	var res TieringResult
	if cfg.Nodes < 2 {
		return res, fmt.Errorf("workload: tiering needs >= 2 nodes, got %d", cfg.Nodes)
	}
	// Buffer sizes in pages. They total at most 1.3125 nodes, so they
	// fit any machine of two or more nodes.
	workPages := cfg.NodePages / 2
	hotPages := cfg.NodePages / 8
	stepPages := hotPages / 2 // how far the hot window slides per epoch
	coldPages := cfg.NodePages * 3 / 4
	bindPages := cfg.NodePages / 16
	p := model.Default()
	if !cfg.Hysteresis {
		p.PromotionHysteresisPeriods = 0
	}
	sys := numamig.New(numamig.Config{
		Nodes:        cfg.Nodes,
		CoresPerNode: cfg.Cores,
		MemPerNode:   int64(cfg.NodePages) * model.PageSize,
		Seed:         cfg.Seed,
		Demotion:     true,
		Params:       &p,
	})
	bal := sys.EnableAutoNUMA(autonuma.Config{})

	others := make([]topology.NodeID, 0, cfg.Nodes-1)
	for n := 1; n < cfg.Nodes; n++ {
		others = append(others, topology.NodeID(n))
	}
	err := sys.Run(func(t *numamig.Task) {
		// Strict-bind ballast: cold for the whole run; the nodemask gate
		// must keep it on node 0 no matter how pressured the node gets.
		bind := numamig.MustAlloc(t, int64(bindPages)*model.PageSize, numamig.Bind(0))
		if err := bind.Prefault(t); err != nil {
			panic(err)
		}
		// Cold ballast: drives node 0 to its watermarks (the placement
		// layer spills the overflow), touched once.
		cold := numamig.MustAlloc(t, int64(coldPages)*model.PageSize, numamig.Preferred(0))
		if err := cold.Prefault(t); err != nil {
			panic(err)
		}
		// Working buffer: starts remote, interleaved over the other
		// nodes; the rotating hot window is promoted in by AutoNUMA.
		work := numamig.MustAlloc(t, int64(workPages)*model.PageSize, numamig.Interleave(others...))
		if err := work.Prefault(t); err != nil {
			panic(err)
		}

		span := workPages - hotPages + 1
		winSize := int64(hotPages) * model.PageSize
		var winBase numamig.Addr
		start := t.P.Now()
		for e := 0; e < epochs; e++ {
			off := 0
			if span > 1 && stepPages > 0 {
				off = (e * stepPages) % span
			}
			winBase = work.Base + numamig.Addr(off)*model.PageSize
			for s := 0; s < sweeps; s++ {
				if err := t.AccessRange(winBase, winSize, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
		}
		res.Dur = t.P.Now() - start

		home := t.Node()
		onHome := 0
		for _, n := range t.GetNodes(winBase, winSize) {
			if n >= 0 && topology.NodeID(n) == home {
				onHome++
			}
		}
		if hotPages > 0 {
			res.HotLocal = float64(onHome) / float64(hotPages)
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
	res.Bytes = epochs * sweeps * int64(hotPages) * model.PageSize
	res.Stats = sys.Stats()
	res.Flips = res.Stats.PromoteDemoteFlips
	res.Demoted = res.Stats.PagesDemoted
	res.DemotedCold = res.Stats.PagesDemotedCold
	res.MigratedMB = sys.MigratedBytes() / 1e6
	res.Auto = bal.Stats
	return res, nil
}
