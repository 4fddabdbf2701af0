package workload

import (
	"fmt"

	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/tenancy"
	"numamig/internal/topology"

	numamig "numamig"
)

// The serve workload: a multi-tenant open system on the tiered
// machine. A deterministic Poisson-like arrival schedule
// (tenancy.Schedule, seeded) admits Tenants tenant processes over
// time; each is one simulated process with a fast-tier residency cap
// (tenancy.Ledger) and a priority class. Latency-sensitive tenants fit
// entirely under their cap, so their working set stays on DRAM; batch
// tenants' caps cover only half their working set, so the cap redirect
// lands the overflow on the CXL tier and the kswapd cap-reclaim keeps
// them at their cap.
//
// Every tenant runs the same measured probe each round — a window
// access plus a move_pages call on that window — and publishes its
// duration as a ClassLatency event. Latency-sensitive probes touch the
// buffer head (all DRAM) and their move_pages requests carry class
// priority 1 through the migration engine's lock queues; batch probes
// touch the buffer tail (resident on CXL, paying the tier's latency
// multiplier) and additionally generate contention: an unmeasured
// full-buffer sweep and a bulk DRAM-to-DRAM move_pages batch per
// round, queued at priority 0. The structural outcome the serve
// scenario family asserts: zero cap violations, and the
// latency-sensitive p99 strictly below the batch p99 in every
// contended cell.
//
// Departure is churn: each tenant frees its buffer before exiting, so
// the ledger drains to zero and later arrivals re-fault the freed
// frames.

// ServeConfig parameterizes one multi-tenant serve run.
type ServeConfig struct {
	// FastNodes is the DRAM node count (0: 2); SlowNodes the CXL node
	// count (0: 1), appended after them.
	FastNodes int
	SlowNodes int
	// Cores is cores per node (0: 4).
	Cores int
	// NodePages is per-DRAM-node memory in 4 KiB frames (0: 512).
	NodePages int
	// SlowRatio sizes each CXL node as a multiple of NodePages (0: 2).
	SlowRatio float64
	// Tenants is how many tenants the arrival schedule admits (0: 8).
	// Even indices are batch class, odd latency-sensitive.
	Tenants int
	// Rounds is measured probe rounds per tenant (0: 8).
	Rounds int
	// Seed drives the simulation and the arrival schedule (0: 1).
	Seed int64
}

// Each tenant's shape, in pages: its working buffer, the measured
// probe window, and the per-class fast-tier caps. The caps put
// latency-sensitive tenants fully under cap and batch tenants at half
// their working set.
const (
	serveWorkPages     = 128
	serveProbePages    = 32
	serveLSCapPages    = 256
	serveBatchCapPages = 64
)

func (c ServeConfig) withDefaults() ServeConfig {
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
		c.NodePages = 512
	}
	if c.SlowRatio == 0 {
		c.SlowRatio = 2
	}
	if c.Tenants == 0 {
		c.Tenants = 8
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ServeResult is one serve run's outcome.
type ServeResult struct {
	// SLO holds the per-class latency percentiles, steady migration
	// bandwidth and bus-observed cap violations (tenancy.Monitor).
	SLO tenancy.SLOStats
	// Admitted / Exited count tenant lifecycle transitions; both must
	// equal the configured tenant count.
	Admitted int
	Exited   int
	// CapViolations is the ledger's authoritative count (must be 0).
	CapViolations int
	// ResidualPages sums what Exit drained (a tenant that freed its
	// buffer before exiting drains 0); LeakedPages is residency still
	// charged to any tenant after the run. Both must be 0.
	ResidualPages int
	LeakedPages   int
	// Contended reports whether the migration-setup lock ever queued —
	// the cells where the class-priority ordering is actually exercised.
	Contended bool
	// Stats snapshots the kernel counters.
	Stats      kern.Stats
	MigratedMB float64
	// Dur is the full run's virtual time; Bytes the measured probe
	// traffic.
	Dur   sim.Time
	Bytes int64
}

// Serve builds a deterministic DRAM+CXL System and runs the
// multi-tenant open-system workload with the demotion daemons on.
func Serve(cfg ServeConfig) (ServeResult, error) {
	cfg = cfg.withDefaults()
	var res ServeResult
	if cfg.FastNodes < 2 {
		return res, fmt.Errorf("workload: serve needs >= 2 DRAM nodes, got %d", cfg.FastNodes)
	}
	if cfg.SlowNodes < 1 {
		return res, fmt.Errorf("workload: serve needs >= 1 slow node, got %d", cfg.SlowNodes)
	}
	nodes := cfg.FastNodes + cfg.SlowNodes
	if nodes > 8 {
		return res, fmt.Errorf("workload: serve machine has %d nodes, topology supports <= 8", nodes)
	}

	p := model.Default()
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

	sys := numamig.New(numamig.Config{
		Nodes:        nodes,
		CoresPerNode: cfg.Cores,
		MemPerNode:   int64(cfg.NodePages) * model.PageSize,
		NodeMem:      nodeMem,
		Seed:         cfg.Seed,
		Demotion:     true,
		Params:       &p,
	})
	bus := sys.Bus()
	mon := tenancy.NewMonitor(bus, 5*p.KswapdPeriod)
	ledger := sys.Kernel.Ten
	slowNode := topology.NodeID(cfg.FastNodes)

	sched := tenancy.NewSchedule(cfg.Seed, 2*p.KswapdPeriod) // mean inter-arrival gap
	fastCores := cfg.FastNodes * cfg.Cores

	err := sys.Run(func(t *numamig.Task) {
		// The admission controller: the app main thread plays the open
		// system's front door, admitting tenants on the schedule's
		// seeded exponential gaps. It allocates nothing itself, so the
		// per-node Phys gauges are exactly the sum of tenant residency
		// (the differential-test contract).
		wg := sim.NewWaitGroup(t.P.Eng(), cfg.Tenants)
		for i := 0; i < cfg.Tenants; i++ {
			if i > 0 {
				t.P.Sleep(sched.Gap())
			}
			class := tenancy.Class(i % 2)
			capPages := serveBatchCapPages
			if class == tenancy.ClassLatencySensitive {
				capPages = serveLSCapPages
			}
			name := fmt.Sprintf("tenant%d", i)
			ten := ledger.Admit(i, name, class, capPages)
			pr := sys.Kernel.NewProcess(name)
			pr.SetTenant(ten)
			core := numamig.CoreID(i % fastCores)
			pr.Spawn(name, core, func(t *numamig.Task) {
				defer wg.Done()
				res.ResidualPages += serveTenant(t, &cfg, bus, ten, slowNode)
				res.ResidualPages += ledger.Exit(ten)
			})
		}
		wg.Wait(t.P)
	})
	if err != nil {
		return res, err
	}

	res.SLO = mon.Finalize()
	res.Admitted = ledger.Admitted
	res.Exited = ledger.Exited
	res.CapViolations = ledger.CapViolations
	for i := 0; i < cfg.Tenants; i++ {
		if ten := ledger.Lookup(i); ten != nil {
			res.LeakedPages += ten.Resident()
		}
	}
	res.Contended = sys.Kernel.MigLock().Contended > 0
	res.Stats = sys.Stats()
	res.MigratedMB = sys.MigratedBytes() / 1e6
	res.Dur = sys.Now()
	res.Bytes = int64(cfg.Tenants) * int64(cfg.Rounds) * serveProbePages * model.PageSize
	return res, nil
}

// serveTenant is one tenant's life: fault the working buffer in under
// the cap contract, run the per-round probes, free everything, leave.
// It returns pages still mapped at the end (always 0: the buffer is
// freed before return).
func serveTenant(t *numamig.Task, cfg *ServeConfig, bus *telemetry.Bus, ten *tenancy.Tenant, slowNode topology.NodeID) int {
	buf := numamig.MustAlloc(t, serveWorkPages*model.PageSize, numamig.FirstTouch())
	if err := buf.Prefault(t); err != nil {
		panic(err)
	}

	probeBytes := int64(serveProbePages * model.PageSize)
	headBase := buf.Base
	tailBase := buf.Base + numamig.Addr((serveWorkPages-serveProbePages)*model.PageSize)
	myNode := t.Node()

	for r := 0; r < cfg.Rounds; r++ {
		if ten.Class == tenancy.ClassBatch {
			// Unmeasured batch work: a full sweep keeps the working set
			// warm, then every DRAM-resident page shuttles to the other
			// DRAM node — a bulk priority-0 batch holding the migration
			// engine's locks, which is exactly what the latency-sensitive
			// probes must overtake. DRAM-to-DRAM only: promoting CXL
			// pages would breach the cap.
			if err := buf.Access(t, numamig.Blocked, false); err != nil {
				panic(err)
			}
			batchShuttle(t, cfg, buf)
		}
		// The measured probe, identical in shape for both classes: touch
		// the probe window, then move_pages it. The latency-sensitive
		// window is the buffer head (DRAM-resident, under cap); the
		// batch window is the tail (on CXL past the cap, paying the
		// tier's latency multiplier) and its move targets the CXL node
		// so it never promotes past the cap.
		probeBase, probeDst := headBase, myNode
		if ten.Class == tenancy.ClassBatch {
			probeBase, probeDst = tailBase, slowNode
		}
		start := t.P.Now()
		if err := t.AccessRange(probeBase, probeBytes, numamig.Blocked, false); err != nil {
			panic(err)
		}
		if _, err := t.MovePagesTo(probeBase, probeBytes, probeDst, true); err != nil {
			panic(err)
		}
		bus.Publish(telemetry.Event{
			Topic: telemetry.TopicClassLatency,
			Node:  myNode, Dst: telemetry.NoNode,
			Task: ten.ID, Pages: serveProbePages,
			Dur: t.P.Now() - start, Value: float64(ten.Class),
		})
	}

	if err := buf.Free(t); err != nil {
		panic(err)
	}
	return 0
}

// batchShuttle moves every DRAM-resident page of the buffer to the
// other DRAM node: real copies, long lock holds, priority 0.
func batchShuttle(t *numamig.Task, cfg *ServeConfig, buf *numamig.Buffer) {
	nodes := t.GetNodes(buf.Base, buf.Size)
	var addrs []numamig.Addr
	var dsts []topology.NodeID
	for i, n := range nodes {
		if n < 0 || n >= cfg.FastNodes {
			continue
		}
		addrs = append(addrs, buf.Base+numamig.Addr(int64(i)*model.PageSize))
		dsts = append(dsts, topology.NodeID((n+1)%cfg.FastNodes))
	}
	if len(addrs) == 0 {
		return
	}
	if _, err := t.MovePages(addrs, dsts, true); err != nil {
		panic(err)
	}
}
