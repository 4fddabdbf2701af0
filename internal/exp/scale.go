package exp

import (
	"fmt"

	numamig "numamig"
	"numamig/internal/sim"
	"numamig/internal/topology"
)

// The scale family smokes the datacenter-scale core: generated machines
// far past the paper's host (64..256-node grids, hierarchical
// socket/die/CXL machines), short-lived task churn across every core,
// and the demotion daemons registered on the kernel's batched hub. The
// cells are sized to stay grid-runnable; the heavyweight points
// (256 nodes x 100k tasks, 1024-node construction) are measured by the
// host-time benchmark's churn-256node workload and construction probes
// (benchmark/). What the family guards is determinism: the CI smoke
// runs it at -parallel 1 and 8 and compares bytes, so the extent
// page-table storage, the lazy topology caches and the daemon hub all
// have to stay schedule-independent.

func init() {
	Register(Family{
		Name: "scale",
		Desc: "64..256-node grids and hierarchical socket/die/CXL machines under short-lived task churn with demotion daemons",
		Generate: func(o Options) []Scenario {
			type cell struct {
				nodes int // grid node count, or hierarchy total (hierFor)
				tasks int
				hier  bool
			}
			cells := []cell{
				{nodes: 64, tasks: 2000},
				{nodes: 128, tasks: 2000},
				{nodes: 72, tasks: 1000, hier: true},
			}
			if o.Quick {
				cells = []cell{
					{nodes: 64, tasks: 400},
					{nodes: 18, tasks: 200, hier: true},
				}
			}
			var out []Scenario
			for _, c := range cells {
				shape, workload := "churn", "churn"
				if c.hier {
					shape, workload = "hier", "hier"
				}
				out = append(out, Scenario{
					ID:       fmt.Sprintf("scale/%s/n%d/t%d", shape, c.nodes, c.tasks),
					Family:   "scale",
					Patched:  true,
					Mode:     "sync",
					Workload: workload,
					Nodes:    c.nodes,
					Tasks:    c.tasks,
					Seed:     o.seed(),
					Cores:    o.CoresPerNode,
					Demotion: true,
				})
			}
			return out
		},
		Run: runScale,
	})
}

// hierFor maps the scale family's hierarchy cell sizes to generator
// configs. The total node count (compute + CXL expanders) is the map
// key so scenario IDs stay honest about machine size.
func hierFor(nodes, coresPerNode int) (topology.HierarchyConfig, error) {
	cfg := topology.HierarchyConfig{
		CoresPerNode:  coresPerNode,
		MemPerNode:    1 << 30,
		L3PerNode:     2 << 20,
		CXLMemPerNode: 4 << 30,
	}
	switch nodes {
	case 18: // 2 sockets x 2 dies x 4 nodes + 1 expander per socket
		cfg.Sockets, cfg.DiesPerSocket, cfg.NodesPerDie, cfg.CXLPerSocket = 2, 2, 4, 1
	case 72: // 4 sockets x 2 dies x 8 nodes + 2 expanders per socket
		cfg.Sockets, cfg.DiesPerSocket, cfg.NodesPerDie, cfg.CXLPerSocket = 4, 2, 8, 2
	default:
		return cfg, fmt.Errorf("exp: no hierarchy shape with %d nodes", nodes)
	}
	return cfg, nil
}

// runScale drives one machine through a wave of short-lived tasks, each
// first-touching a small buffer, pushing it one node over with
// move_pages and reading it back — the same churn the bench smoke
// points use, at grid-runnable size. Tasks are pinned round-robin over
// the machine's cores and launched one wave per core count, so at most
// one simulated thread runs per core. Measured phase: first spawn to
// last task exit.
func runScale(s Scenario) Result {
	const pagesPerTask = 8
	res := Result{Scenario: s}
	cores := s.Cores
	if cores == 0 {
		cores = 2 // narrow sockets: 256-node cells stay grid-runnable
	}
	cfg := numamig.Config{
		Nodes:        s.Nodes,
		CoresPerNode: cores,
		MemPerNode:   1 << 30,
		Seed:         s.Seed,
		Demotion:     s.Demotion,
	}
	if s.Workload == "hier" {
		hc, err := hierFor(s.Nodes, cores)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		cfg.Machine = topology.Hierarchy(hc)
	}
	sys := numamig.New(cfg)
	nodes := sys.Machine.NumNodes()
	ncores := sys.Machine.NumCores()
	var dur sim.Time
	err := sys.Run(func(main *numamig.Task) {
		start := main.P.Now()
		for done := 0; done < s.Tasks; {
			wave := ncores
			if left := s.Tasks - done; left < wave {
				wave = left
			}
			wg := sim.NewWaitGroup(sys.Eng, wave)
			for i := 0; i < wave; i++ {
				core := numamig.CoreID((done + i) % ncores)
				main.Proc.Spawn("churn", core, func(t *numamig.Task) {
					defer wg.Done()
					b := numamig.MustAlloc(t, pagesPerTask*numamig.PageSize, numamig.Policy{})
					if err := b.Access(t, numamig.Stream, true); err != nil {
						panic(err)
					}
					dst := (t.Node() + 1) % numamig.NodeID(nodes)
					if err := b.MoveTo(t, dst, true); err != nil {
						panic(err)
					}
					if err := b.Access(t, numamig.Stream, false); err != nil {
						panic(err)
					}
					if err := b.Free(t); err != nil {
						panic(err)
					}
				})
			}
			done += wave
			wg.Wait(main.P)
		}
		dur = main.P.Now() - start
	})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	fill(&res, sys, int64(s.Tasks)*pagesPerTask*numamig.PageSize*2, dur)
	return res
}
