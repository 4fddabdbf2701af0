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

// The pressure workload: an overcommitted, imbalanced machine — the
// regime where migration policy choices matter most. One compute
// thread on node 0 first touches a cold set sized past the node's
// capacity (an Imbalance fraction of it preferred onto node 0, the
// rest interleaved over the other nodes), then allocates a hot working
// set bound to the farthest node and sweeps it repeatedly from node 0.
// Localizing the hot set needs both halves of the pressure subsystem:
// the kswapd-style demotion daemons must evict cold pages off node 0
// to make room, and a migration policy (sync move_pages, kernel
// next-touch marks, or AutoNUMA) must pull the hot pages in. Either
// mechanism alone is not enough: demotion without a policy frees room
// nobody uses; a policy without demotion migrates into a node at its
// watermarks, so the placement fallback lands the "migrated" pages
// right back on a remote node (churn), and AutoNUMA's pressure gate
// skips the promotions outright.

// PressureConfig parameterizes one overcommitted run. The policy set
// reuses PhasePolicy minus PhaseLazyUser (the user-space library's
// SIGSEGV protocol is orthogonal to pressure).
type PressureConfig struct {
	// Nodes is the machine size (0: 4); must be >= 2.
	Nodes int
	// Cores is cores per node (0: 4).
	Cores int
	// NodePages is per-node memory in 4 KiB frames (0: 1024 = 4 MiB).
	NodePages int
	// Overcommit sizes the total allocation as a multiple of one
	// node's capacity (0: 1.5).
	Overcommit float64
	// Imbalance is the fraction of the cold set preferred onto node 0
	// (0: 1.0); the rest interleaves over the other nodes.
	Imbalance float64
	// Seed drives the simulation (0: 1).
	Seed int64
	// Policy selects the hot-set migration machinery.
	Policy PhasePolicy
	// Demotion starts the kswapd-style demotion daemons.
	Demotion bool
}

func (c PressureConfig) withDefaults() PressureConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Cores == 0 {
		c.Cores = 4
	}
	if c.NodePages == 0 {
		c.NodePages = 1024
	}
	if c.Overcommit == 0 {
		c.Overcommit = 1.5
	}
	if c.Imbalance == 0 {
		c.Imbalance = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// PressureResult is one run's outcome.
type PressureResult struct {
	// Dur is the virtual time of the measured epochs (after setup).
	Dur sim.Time
	// Bytes is the hot bytes swept over the measured epochs.
	Bytes int64
	// HotHist is the final hot-set node histogram; Absent counts
	// non-present hot pages (must be 0: ErrNoMemory never reaches the
	// workload).
	HotHist []int
	Absent  int
	// HotLocal is the fraction of hot pages resident on the compute
	// thread's node when the run ended.
	HotLocal float64
	// Demoted is the number of pages the kswapd daemons demoted.
	Demoted uint64
	// Stats snapshots the kernel counters; Auto the balancer's.
	Stats      kern.Stats
	Auto       autonuma.Stats
	MigratedMB float64
}

// Pressure builds a fresh deterministic overcommitted System and runs
// the workload.
func Pressure(cfg PressureConfig) (PressureResult, error) {
	const epochs = 12 // measured epochs: one policy step and two hot-set sweeps each
	cfg = cfg.withDefaults()
	var res PressureResult
	if cfg.Nodes < 2 {
		return res, fmt.Errorf("workload: pressure needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Policy == PhaseLazyUser {
		return res, fmt.Errorf("workload: pressure does not support the lazy-user policy")
	}
	hotPages := cfg.NodePages / 4
	total := int(cfg.Overcommit * float64(cfg.NodePages))
	cold := total - hotPages
	if cold < 0 {
		return res, fmt.Errorf("workload: hot set (%d pages) exceeds total allocation (%d pages)",
			hotPages, total)
	}
	if total > cfg.Nodes*cfg.NodePages {
		return res, fmt.Errorf("workload: overcommit %.2f does not fit the machine (%d > %d pages)",
			cfg.Overcommit, total, cfg.Nodes*cfg.NodePages)
	}
	sys := numamig.New(numamig.Config{
		Nodes:        cfg.Nodes,
		CoresPerNode: cfg.Cores,
		MemPerNode:   int64(cfg.NodePages) * model.PageSize,
		Seed:         cfg.Seed,
		Demotion:     cfg.Demotion,
	})

	var nt *numamig.KernelNT
	var bal *autonuma.Balancer
	switch cfg.Policy {
	case PhaseLazyKernel:
		nt = sys.NewKernelNT()
	case PhaseAutoNUMA:
		bal = sys.EnableAutoNUMA(autonuma.Config{})
	}

	others := make([]topology.NodeID, 0, cfg.Nodes-1)
	for n := 1; n < cfg.Nodes; n++ {
		others = append(others, topology.NodeID(n))
	}
	err := sys.Run(func(t *numamig.Task) {
		// Cold set: fills node 0 past its watermarks (the placement
		// layer spills the overflow to the other nodes), touched once.
		coldLocal := int(cfg.Imbalance * float64(cold))
		var coldBufs []*numamig.Buffer
		if coldLocal > 0 {
			coldBufs = append(coldBufs,
				numamig.MustAlloc(t, int64(coldLocal)*model.PageSize, numamig.Preferred(0)))
		}
		if rest := cold - coldLocal; rest > 0 {
			coldBufs = append(coldBufs,
				numamig.MustAlloc(t, int64(rest)*model.PageSize, numamig.Interleave(others...)))
		}
		for _, b := range coldBufs {
			if err := b.Prefault(t); err != nil {
				panic(err)
			}
		}
		// Hot set: bound to the farthest node, so localizing it requires
		// pulling pages into whatever room demotion frees on node 0.
		far := topology.NodeID(cfg.Nodes - 1)
		hot := numamig.MustAlloc(t, int64(hotPages)*model.PageSize, numamig.Bind(far))
		if err := hot.Prefault(t); err != nil {
			panic(err)
		}

		start := t.P.Now()
		for e := 0; e < epochs; e++ {
			switch cfg.Policy {
			case PhaseSync:
				if err := hot.MoveTo(t, 0, true); err != nil {
					panic(err)
				}
			case PhaseLazyKernel:
				if _, err := nt.Mark(t, hot.Region()); err != nil {
					panic(err)
				}
			}
			for s := 0; s < 2; s++ {
				if err := hot.Access(t, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
		}
		res.Dur = t.P.Now() - start
		res.HotHist, res.Absent = hot.NodeHistogram(t)
		if hotPages > 0 {
			res.HotLocal = float64(res.HotHist[t.Node()]) / float64(hotPages)
		}
	})
	if err != nil {
		return res, err
	}
	res.Bytes = epochs * 2 * int64(hotPages) * model.PageSize
	res.Stats = sys.Stats()
	res.Demoted = res.Stats.PagesDemoted
	res.MigratedMB = sys.MigratedBytes() / 1e6
	if bal != nil {
		res.Auto = bal.Stats
	}
	return res, nil
}
