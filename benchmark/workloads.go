package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	numamig "numamig"
	"numamig/internal/artifact"
	"numamig/internal/exp"
	"numamig/internal/sim"
	"numamig/internal/tenancy"
	"numamig/internal/workload"
)

// workloadRunner drives one workload: one set of inputs the benchmark
// runs, made from the seed.
type workloadRunner interface {
	// setup builds what the passes share and runs one unmeasured
	// warm-up unit. The harness calls it several times and times each.
	setup() error
	// pass runs one pass of the workload's fixed work and reports every
	// unit to m. It keeps the outputs for check.
	pass(m *meter) error
	// check verifies the outputs of every pass run so far, outside the
	// timed phases. It returns the units that failed their own check, and
	// an error when a run-level check failed, which fails every unit of
	// the run.
	check() (tally, error)
}

// tally counts the units that failed their own check and keeps the
// first reason.
type tally struct {
	failed int
	first  error
}

// add counts units as failed when err is set.
func (t *tally) add(units int, err error) {
	if err == nil {
		return
	}
	t.failed += units
	if t.first == nil {
		t.first = err
	}
}

// spec names a workload and says how to build it.
type spec struct {
	name string
	// cycle is how many passes cover the workload's inputs once; a timed
	// phase runs a multiple of it. tracedPasses is the fixed work of the
	// traced phase.
	cycle        int
	tracedPasses int
	// lit subscribes a handler to every telemetry topic of every System
	// the workload builds.
	lit  bool
	make func(env runEnv) workloadRunner
}

// runEnv is what every workload is built from.
type runEnv struct {
	seed    int64
	workers int
}

// specs lists the workloads in the order a full run executes them. They
// stress different layers, so that a change to one layer has a workload
// that exercises it and one that bypasses it.
func specs() []spec {
	return []spec{
		// Every scenario family, daemon families included, through a
		// parallel worker loop, one System per scenario: the only
		// workload on the pressure, tiering, tiered and autonuma
		// families. Almost no LU rectangle traffic, no tenancy.
		{
			name:         "grid-all",
			cycle:        1,
			tracedPasses: 20,
			make: func(env runEnv) workloadRunner {
				// Runs start in the repository root, where the committed
				// artifacts live.
				return &gridAll{env: env, fig7Config: filepath.Join("artifacts", "fig7.json"), fig7Dir: filepath.Join("artifacts", "fig7")}
			},
		},
		// The paper's application result: rectangle faults and traffic
		// plus next-touch migration. No daemons, no bus, no tenancy.
		{
			name:         "lu-table1",
			cycle:        1,
			tracedPasses: 3,
			make:         func(env runEnv) workloadRunner { return &luTable1{seed: env.seed, rows: table1Rows} },
		},
		// The 100k-task scale point: engine dispatch, proc handoff, the
		// fluid network, the frame allocator and per-request migration
		// overhead rather than per-page copies.
		{
			name:         "churn-256node",
			cycle:        1,
			tracedPasses: 4,
			make: func(env runEnv) workloadRunner {
				return &churn{seed: env.seed, nodes: 256, coresPerNode: 2, wavesPerPass: 50}
			},
		},
		// The only workload with the tenancy ledger, priority lock
		// queues and a fully lit telemetry bus: small prioritised
		// migration batches under lock contention.
		{
			name:         "serve-observed",
			cycle:        serveSeeds / serveCallsPerPass,
			tracedPasses: serveSeeds / serveCallsPerPass,
			lit:          true,
			make: func(env runEnv) workloadRunner {
				return &serveObserved{seed: env.seed, callsPerPass: serveCallsPerPass, cfg: workload.ServeConfig{
					FastNodes: 7, SlowNodes: 1, SlowRatio: 4, Tenants: 28, Rounds: 64,
				}}
			},
		},
	}
}

// ---- grid-all ----

// gridAll runs the scenario grid of the named families (nil: every
// registered family) through the benchmark's own worker loop; a unit is
// one scenario.
type gridAll struct {
	env        runEnv
	families   []string
	fig7Config string // campaign whose regenerated artifacts must match fig7Dir
	fig7Dir    string

	scs []exp.Scenario
	// first is the first pass's results; later passes are only compared
	// with it, so memory stays flat however many passes run.
	first   []exp.Result
	passes  int
	differs int // the first pass whose results differ from first, or 0
}

func (g *gridAll) setup() error {
	scs, err := exp.Scenarios(g.families, exp.Options{Seed: g.env.seed})
	if err != nil {
		return err
	}
	g.scs = scs
	runGrid(g.scs, g.env.workers, nil)
	return nil
}

func (g *gridAll) pass(m *meter) error {
	res := runGrid(g.scs, g.env.workers, m)
	g.passes++
	if g.first == nil {
		g.first = res
	} else if g.differs == 0 && !slices.Equal(res, g.first) {
		g.differs = g.passes
	}
	return nil
}

// runGrid runs scs on workers goroutines, reporting each scenario to m
// when m is set, and returns the results in scenario order.
func runGrid(scs []exp.Scenario, workers int, m *meter) []exp.Result {
	out := make([]exp.Result, len(scs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(scs); i = int(next.Add(1) - 1) {
				start := time.Now()
				out[i] = exp.RunScenario(scs[i])
				if m != nil {
					m.unit(tid, scs[i].ID, start, sim.FromSeconds(out[i].SimSeconds))
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// gridDigest hashes a pass's CSV rendering: equal digests mean
// byte-identical grid output.
func gridDigest(results []exp.Result) [sha256.Size]byte {
	var buf bytes.Buffer
	exp.WriteCSV(&buf, results)
	return sha256.Sum256(buf.Bytes())
}

// check requires every pass to repeat the first exactly, a serial pass
// to render the same CSV bytes, and the fig7 campaign to regenerate
// the committed artifacts; each scenario that reports an error fails
// its unit in every pass.
func (g *gridAll) check() (tally, error) {
	var t tally
	for _, r := range g.first {
		if r.Err != "" {
			t.add(g.passes, fmt.Errorf("scenario %s: %s", r.ID, r.Err))
		}
	}
	if g.first == nil {
		return t, nil
	}
	if g.differs > 0 {
		return t, fmt.Errorf("grid pass %d output differs from pass 1", g.differs)
	}
	if gridDigest(runGrid(g.scs, 1, nil)) != gridDigest(g.first) {
		return t, fmt.Errorf("serial grid output differs from the %d-worker passes", g.env.workers)
	}
	return t, checkCampaign(g.fig7Config, g.fig7Dir)
}

// checkCampaign regenerates the artifact campaign configured at
// cfgPath and requires every rendered file to be byte-identical to the
// committed copy in dir.
func checkCampaign(cfgPath, dir string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	cfg, err := artifact.ParseConfig(data)
	if err != nil {
		return err
	}
	out, err := artifact.RunCampaign(cfg, artifact.RunOptions{})
	if err != nil {
		return err
	}
	files := []struct {
		name string
		data []byte
	}{
		{artifact.RawCSVName, out.RawCSV},
		{artifact.SummaryName, out.Summary},
		{artifact.TablesName, out.Tables},
		{artifact.FiguresName, out.Figures},
	}
	for _, f := range files {
		if f.data == nil {
			continue
		}
		ref, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		if !bytes.Equal(ref, f.data) {
			return fmt.Errorf("regenerated %s differs from %s", f.name, filepath.Join(dir, f.name))
		}
	}
	return nil
}

// ---- lu-table1 ----

// table1Row is one (matrix, block) size of Table 1.
type table1Row struct{ n, b int }

// table1Rows are the quick rows of numabench's Table 1.
var table1Rows = []table1Row{
	{2048, 64}, {2048, 128}, {2048, 256},
	{4096, 128}, {4096, 256}, {4096, 512},
	{8192, 512},
}

// luTable1 runs every row static and next-touch; a unit is one LU run.
type luTable1 struct {
	seed   int64
	rows   []table1Row
	passes [][]luRow
}

// luRow is one row's pair of results.
type luRow struct{ static, nt workload.LUResult }

func (l *luTable1) run(r table1Row, p workload.LUPolicy) (workload.LUResult, error) {
	return workload.RunLU(workload.LUConfig{N: r.n, B: r.b, Policy: p, Seed: l.seed})
}

func (l *luTable1) setup() error {
	if _, err := l.run(l.rows[0], workload.LUStatic); err != nil {
		return err
	}
	_, err := l.run(l.rows[0], workload.LUNextTouch)
	return err
}

func (l *luTable1) pass(m *meter) error {
	var out []luRow
	for _, r := range l.rows {
		var row luRow
		for _, cell := range []struct {
			policy workload.LUPolicy
			res    *workload.LUResult
		}{{workload.LUStatic, &row.static}, {workload.LUNextTouch, &row.nt}} {
			start := time.Now()
			res, err := l.run(r, cell.policy)
			if err != nil {
				return err
			}
			m.unit(1, fmt.Sprintf("lu %dx%d %s", r.n, r.b, cell.policy), start, res.Duration)
			*cell.res = res
		}
		out = append(out, row)
	}
	l.passes = append(l.passes, out)
	return nil
}

// check requires every pass to repeat the first exactly and every row
// to show the paper's effect: next-touch migrates pages and serves
// fewer bytes remotely than static placement, which migrates none. A
// row that breaks it fails both its units in every pass.
func (l *luTable1) check() (tally, error) {
	var t tally
	if len(l.passes) == 0 {
		return t, nil
	}
	first := l.passes[0]
	for i, p := range l.passes[1:] {
		for j := range p {
			if p[j] != first[j] {
				return t, fmt.Errorf("LU pass %d row %d differs from pass 1", i+2, j+1)
			}
		}
	}
	for _, r := range first {
		t.add(2*len(l.passes), luRowErr(r.static, r.nt))
	}
	return t, nil
}

func luRowErr(static, nt workload.LUResult) error {
	switch {
	case static.NTMigrations != 0:
		return fmt.Errorf("static %dx%d migrated %d pages", static.Config.N, static.Config.B, static.NTMigrations)
	case nt.NTMigrations == 0:
		return fmt.Errorf("next-touch %dx%d migrated nothing", nt.Config.N, nt.Config.B)
	case nt.RemoteFrac >= static.RemoteFrac:
		return fmt.Errorf("next-touch %dx%d remote fraction %g not below static %g", nt.Config.N, nt.Config.B, nt.RemoteFrac, static.RemoteFrac)
	}
	return nil
}

// ---- churn-256node ----

// churnPagesPerTask is each task's buffer, in pages.
const churnPagesPerTask = 8

// churn launches short-lived tasks in waves of one task per core on a
// machine with demotion on. Each task first-touches a small buffer,
// moves it one node over with move_pages, reads it and frees it. A pass
// builds its own System and runs wavesPerPass waves; a unit is one
// wave. One wave per core count keeps the fluid network at one flow per
// core, as real hardware runs one thread per core.
type churn struct {
	seed                int64
	nodes, coresPerNode int
	wavesPerPass        int
	passes              []churnPass
}

// churnPass is what one pass's check needs.
type churnPass struct {
	tasks        int
	pagesMoved   uint64
	framesBefore int64
	framesAfter  int64
}

func (c *churn) system() *numamig.System {
	return numamig.New(numamig.Config{
		Nodes: c.nodes, CoresPerNode: c.coresPerNode, MemPerNode: 1 << 30,
		Seed: c.seed, Demotion: true,
	})
}

func (c *churn) setup() error {
	_, err := c.run(c.system(), 1, nil)
	return err
}

func (c *churn) pass(m *meter) error {
	p, err := c.run(c.system(), c.wavesPerPass, m)
	c.passes = append(c.passes, p)
	return err
}

func allocatedFrames(sys *numamig.System) int64 {
	var n int64
	for i := range sys.Machine.Nodes {
		n += sys.Kernel.Phys.Stats(numamig.NodeID(i)).Allocated
	}
	return n
}

func (c *churn) run(sys *numamig.System, waves int, m *meter) (churnPass, error) {
	p := churnPass{framesBefore: allocatedFrames(sys)}
	ncores := sys.Machine.NumCores()
	nodes := numamig.NodeID(sys.Machine.NumNodes())
	err := sys.Run(func(main *numamig.Task) {
		for w := 0; w < waves; w++ {
			start, simStart := time.Now(), main.P.Now()
			wg := sim.NewWaitGroup(sys.Eng, ncores)
			for i := 0; i < ncores; i++ {
				main.Proc.Spawn("churn", numamig.CoreID(i), func(t *numamig.Task) {
					defer wg.Done()
					b := numamig.MustAlloc(t, churnPagesPerTask*numamig.PageSize, numamig.Policy{})
					if err := b.Access(t, numamig.Stream, true); err != nil {
						panic(err)
					}
					if err := b.MoveTo(t, (t.Node()+1)%nodes, true); err != nil {
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
			wg.Wait(main.P)
			p.tasks += ncores
			if m != nil {
				m.unit(1, fmt.Sprintf("wave %d", w+1), start, main.P.Now()-simStart)
			}
		}
	})
	p.pagesMoved = sys.Migrator(numamig.Patched).Stats.PagesMoved
	p.framesAfter = allocatedFrames(sys)
	return p, err
}

// check requires every task's pages to have moved and every frame to
// have been freed; a pass that breaks it fails all its waves.
func (c *churn) check() (tally, error) {
	var t tally
	for _, p := range c.passes {
		t.add(c.wavesPerPass, churnPassErr(p))
	}
	return t, nil
}

func churnPassErr(p churnPass) error {
	if want := uint64(p.tasks * churnPagesPerTask); p.pagesMoved != want {
		return fmt.Errorf("churn moved %d pages, want %d", p.pagesMoved, want)
	}
	if p.framesAfter != p.framesBefore {
		return fmt.Errorf("churn left %d frames allocated, had %d", p.framesAfter, p.framesBefore)
	}
	return nil
}

// ---- serve-observed ----

// serveSeeds is how many consecutive seeds the serve calls cycle
// through, serveCallsPerPass calls a pass.
const (
	serveSeeds        = 150
	serveCallsPerPass = 10
)

// serveObserved makes workload.Serve calls; a unit is one call, and
// unit i of a phase runs under seed+i mod serveSeeds. Set-up i warms up
// with the same seed cycle, so that the set-up median, like the unit
// times, averages over seeds instead of resting on one.
type serveObserved struct {
	seed         int64
	callsPerPass int
	cfg          workload.ServeConfig
	setups       int
	calls        []workload.ServeResult
}

func (s *serveObserved) call(seed int64) (workload.ServeResult, error) {
	cfg := s.cfg
	cfg.Seed = seed
	return workload.Serve(cfg)
}

func (s *serveObserved) setup() error {
	_, err := s.call(s.seed + int64(s.setups%serveSeeds))
	s.setups++
	return err
}

func (s *serveObserved) pass(m *meter) error {
	for i := 0; i < s.callsPerPass; i++ {
		seed := s.seed + int64(m.units()%serveSeeds)
		start := time.Now()
		res, err := s.call(seed)
		if err != nil {
			return err
		}
		m.unit(1, fmt.Sprintf("serve seed %d", seed), start, res.Dur)
		s.calls = append(s.calls, res)
	}
	return nil
}

func (s *serveObserved) check() (tally, error) {
	var t tally
	for _, r := range s.calls {
		t.add(1, serveErr(r, s.cfg.Tenants))
	}
	return t, nil
}

// serveErr checks one call's SLO contract: no cap violation, no leaked
// or residual pages, every tenant admitted and exited, and under lock
// contention latency-sensitive p99 below batch p99.
func serveErr(r workload.ServeResult, tenants int) error {
	switch {
	case r.CapViolations != 0:
		return fmt.Errorf("%d cap violations", r.CapViolations)
	case r.LeakedPages != 0 || r.ResidualPages != 0:
		return fmt.Errorf("%d leaked, %d residual pages", r.LeakedPages, r.ResidualPages)
	case r.Admitted != tenants || r.Exited != tenants:
		return fmt.Errorf("admitted %d, exited %d of %d tenants", r.Admitted, r.Exited, tenants)
	case r.Contended && r.SLO.P99[tenancy.ClassLatencySensitive] >= r.SLO.P99[tenancy.ClassBatch]:
		return fmt.Errorf("ls p99 %v not below batch p99 %v", r.SLO.P99[tenancy.ClassLatencySensitive], r.SLO.P99[tenancy.ClassBatch])
	}
	return nil
}
