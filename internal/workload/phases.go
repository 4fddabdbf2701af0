package workload

import (
	"fmt"

	"numamig/internal/autonuma"
	"numamig/internal/core"
	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"

	numamig "numamig"
)

// The phase-shifting workload: one compute thread owns a buffer whose
// access locus rotates across nodes mid-run — the scheduler moves the
// thread from node to node and it re-sweeps the whole workset from
// each. It is the workload class that separates the paper's explicit
// next-touch policies (which need a runtime hint at every phase
// boundary) from automatic NUMA balancing (which discovers each shift
// from hinting faults alone) and from static placement (which pays the
// full remote penalty for every phase after the first).

// PhasePolicy selects the placement machinery driving the workload.
type PhasePolicy int

// Phase policies.
const (
	// PhaseStatic leaves pages where first-touch put them: every phase
	// after the first runs fully remote.
	PhaseStatic PhasePolicy = iota
	// PhaseSync migrates the whole workset with move_pages at every
	// thread move (core.Manager Sync mode).
	PhaseSync
	// PhaseLazyKernel marks the workset migrate-on-next-touch (madvise)
	// at every thread move.
	PhaseLazyKernel
	// PhaseLazyUser marks the workset with the user-space next-touch
	// library at every thread move.
	PhaseLazyUser
	// PhaseAutoNUMA uses no hints at all: the autonuma scanner and
	// hinting faults discover each phase shift.
	PhaseAutoNUMA
)

func (p PhasePolicy) String() string {
	switch p {
	case PhaseStatic:
		return "off"
	case PhaseSync:
		return "sync"
	case PhaseLazyKernel:
		return "lazy-kernel"
	case PhaseLazyUser:
		return "lazy-user"
	case PhaseAutoNUMA:
		return "autonuma"
	}
	return "invalid"
}

// PhasePolicies lists every policy, in grid order.
func PhasePolicies() []PhasePolicy {
	return []PhasePolicy{PhaseStatic, PhaseSync, PhaseLazyKernel, PhaseLazyUser, PhaseAutoNUMA}
}

// PhasePolicyOf parses a policy name.
func PhasePolicyOf(s string) (PhasePolicy, error) {
	for _, p := range PhasePolicies() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown phase policy %q", s)
}

// PhaseShiftConfig parameterizes one run.
type PhaseShiftConfig struct {
	// Nodes is the machine size (0: the paper's 4).
	Nodes int
	// Cores is cores per node (0: 4).
	Cores int
	// Pages is the buffer size in 4 KiB pages (0: 1024).
	Pages int
	// Hops is the number of phase shifts (thread moves). 1 reproduces
	// the paper's single-rotation scenario (one move to the farthest
	// node); 0 means a full rotation visiting every non-home node.
	Hops int
	// Seed drives the simulation (0: 1).
	Seed int64
	// Policy selects the placement machinery.
	Policy PhasePolicy
}

func (c PhaseShiftConfig) withDefaults() PhaseShiftConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Pages == 0 {
		c.Pages = 1024
	}
	if c.Hops == 0 {
		c.Hops = c.Nodes - 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// targets returns the node visited at each hop: the farthest node for
// a single rotation, else a rotation cycling over the non-home nodes.
func (c PhaseShiftConfig) targets() []topology.NodeID {
	if c.Nodes < 2 {
		return nil
	}
	if c.Hops == 1 {
		return []topology.NodeID{topology.NodeID(c.Nodes - 1)}
	}
	out := make([]topology.NodeID, c.Hops)
	for h := range out {
		out[h] = topology.NodeID(h%(c.Nodes-1) + 1)
	}
	return out
}

// PhaseShiftResult is one run's outcome.
type PhaseShiftResult struct {
	// Dur is the virtual time from the first thread move to the end of
	// the last sweep.
	Dur sim.Time
	// Bytes is the application bytes swept over the measured phase.
	Bytes int64
	// Hist is the final buffer node histogram; Absent counts
	// non-present pages.
	Hist   []int
	Absent int
	// OnFinal is the fraction of pages resident on the final phase's
	// node when the run ended.
	OnFinal float64
	// Stats snapshots the kernel counters; Auto the balancer's (zero
	// unless Policy == PhaseAutoNUMA).
	Stats      kern.Stats
	Auto       autonuma.Stats
	MigratedMB float64
}

// PhaseShift builds a fresh deterministic System and runs the workload.
func PhaseShift(cfg PhaseShiftConfig) (PhaseShiftResult, error) {
	const sweeps = 16 // whole-buffer sweeps per phase
	cfg = cfg.withDefaults()
	var res PhaseShiftResult
	sys := numamig.New(numamig.Config{Nodes: cfg.Nodes, CoresPerNode: cfg.Cores, Seed: cfg.Seed})
	size := int64(cfg.Pages) * model.PageSize

	var mgr *core.Manager
	var bal *autonuma.Balancer
	switch cfg.Policy {
	case PhaseSync:
		mgr = sys.NewManager(core.Sync, true)
	case PhaseLazyKernel:
		mgr = sys.NewManager(core.LazyKernel, true)
	case PhaseLazyUser:
		mgr = sys.NewManager(core.LazyUser, true)
	case PhaseAutoNUMA:
		bal = sys.EnableAutoNUMA(autonuma.Config{})
	}

	targets := cfg.targets()
	err := sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, size, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		if mgr != nil {
			mgr.Attach(t, buf.Region())
		}
		start := t.P.Now()
		for _, node := range targets {
			core0 := sys.Machine.Nodes[node].Cores[0]
			if mgr != nil {
				if err := mgr.MoveThread(t, core0); err != nil {
					panic(err)
				}
			} else {
				t.MigrateTo(core0)
			}
			for s := 0; s < sweeps; s++ {
				if err := buf.Access(t, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
		}
		res.Dur = t.P.Now() - start
		res.Hist, res.Absent = buf.NodeHistogram(t)
		if len(targets) > 0 && cfg.Pages > 0 {
			res.OnFinal = float64(res.Hist[targets[len(targets)-1]]) / float64(cfg.Pages)
		}
	})
	if err != nil {
		return res, err
	}
	res.Bytes = int64(cfg.Hops) * sweeps * size
	res.Stats = sys.Stats()
	res.MigratedMB = sys.MigratedBytes() / 1e6
	if bal != nil {
		res.Auto = bal.Stats
	}
	return res, nil
}
