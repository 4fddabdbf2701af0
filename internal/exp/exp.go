// Package exp is the scenario registry and concurrent runner for the
// paper's experiment grid.
//
// A Scenario is one fully-specified simulation configuration (strategy
// x migration mode x buffer size x machine size, plus the seed). A
// Family is a named generator that expands options into a scenario
// list plus a function that runs one scenario; families register
// themselves in a global registry so cmd/numabench can enumerate them
// (`numabench -grid -families migration,replication`).
//
// Every scenario builds its own deterministic System, so the Runner can
// execute scenarios across parallel goroutines with no shared state:
// the same seeds produce byte-identical JSON/CSV output whatever the
// parallelism (see Runner).
package exp

import (
	"fmt"
	"sort"

	"numamig/internal/core"
	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"

	numamig "numamig"
)

// Scenario is one point of the experiment grid.
type Scenario struct {
	ID      string `json:"id"`
	Family  string `json:"family"`
	Patched bool   `json:"patched"`
	Mode    string `json:"mode"`  // sync | lazy-kernel | lazy-user | static | replicated | autonuma | off
	Pages   int    `json:"pages"` // buffer size in 4 KiB pages
	Nodes   int    `json:"nodes"` // machine size in NUMA nodes
	Seed    int64  `json:"seed"`
	// Cores is cores per node (0: the Opteron host's 4). Set by the
	// -cores-per-node sweep flag.
	Cores int `json:"cores,omitempty"`
	// Workload selects the driver for families with more than one
	// (autonuma: "rotate1" single rotation, "phases" full rotation).
	Workload string `json:"workload,omitempty"`
	// Pressure-family dimensions: total allocation as a multiple of one
	// node's capacity, the fraction of the cold set aimed at node 0,
	// and whether the kswapd-style demotion daemons run.
	Overcommit float64 `json:"overcommit,omitempty"`
	Imbalance  float64 `json:"imbalance,omitempty"`
	Demotion   bool    `json:"demotion,omitempty"`
	// Hysteresis (tiering/tiered families) enables promotion
	// hysteresis: freshly promoted pages are protected from demotion
	// for Params.PromotionHysteresisPeriods scan periods.
	Hysteresis bool `json:"hysteresis,omitempty"`
	// Tiered-family dimensions: how many of the machine's nodes are
	// CXL slow-memory expanders (appended after the DRAM nodes), each
	// slow node's capacity as a multiple of a DRAM node's, and the
	// promotion rate limit out of the slow tier (0 = unlimited).
	SlowNodes     int     `json:"slow_nodes,omitempty"`
	SlowRatio     float64 `json:"slow_ratio,omitempty"`
	RateLimitMBps float64 `json:"rate_limit_mbps,omitempty"`
	// Adaptive replaces the static promotion rate limit with the
	// closed-loop controller (internal/control); RateLimitMBps is
	// ignored then.
	Adaptive bool `json:"adaptive,omitempty"`
	// Tasks is the short-lived task count of the scale family's churn
	// workloads.
	Tasks int `json:"tasks,omitempty"`
}

// Result is the outcome of one scenario: the virtual-time metrics and
// kernel counters the paper reports.
type Result struct {
	Scenario
	SimSeconds    float64 `json:"sim_seconds"`                    // virtual duration of the measured phase
	MBps          float64 `json:"mbps"`                           // buffer bytes over the measured phase
	PagesMoved    uint64  `json:"pages_moved"`                    // pages physically migrated
	MigratedMB    float64 `json:"migrated_mb"`                    // bytes moved by the engine
	Faults        uint64  `json:"faults"`                         // page faults taken
	Syscalls      uint64  `json:"syscalls"`                       // syscalls issued
	TLBShootdowns uint64  `json:"tlb_shootdowns"`                 // process-wide TLB flushes
	RemoteMB      float64 `json:"remote_mb"`                      // application bytes served remotely
	LocalMB       float64 `json:"local_mb"`                       // application bytes served locally
	NumaHints     uint64  `json:"numa_hints,omitempty"`           // AutoNUMA hinting faults taken
	Demoted       uint64  `json:"pages_demoted,omitempty"`        // pages demoted by the kswapd daemons
	HotLocal      float64 `json:"hot_local,omitempty"`            // pressure/tiering: final hot-set locality fraction
	Flips         uint64  `json:"promote_demote_flips,omitempty"` // pages demoted within the flip window of their promotion
	SlowResident  int64   `json:"slow_tier_resident,omitempty"`   // tiered: pages resident on slow-tier (CXL) nodes at run end
	RateLimited   uint64  `json:"promote_rate_limited,omitempty"` // promotions dropped by the slow-tier token bucket
	// Windowed telemetry columns (telemetry.Windows subscribers on the
	// event bus; tiered family).
	FaultRateHz     float64 `json:"fault_rate_hz,omitempty"`             // peak per-window page-fault rate
	MigrateBWPeak   float64 `json:"migrate_bw_mbps_peak,omitempty"`      // peak per-window migration bandwidth
	P99SlowResident float64 `json:"p99_slow_residency_window,omitempty"` // p99 of the windowed slow-tier residency gauge
	// Serve-family SLO columns (tenancy.Monitor): per-class access-probe
	// latency percentiles in microseconds of virtual time, the median
	// per-window migration bandwidth, and the ledger's cap-violation
	// count (must be 0 in every cell).
	P50AccessLatLS    float64 `json:"p50_access_lat_ls,omitempty"`
	P99AccessLatLS    float64 `json:"p99_access_lat_ls,omitempty"`
	P50AccessLatBatch float64 `json:"p50_access_lat_batch,omitempty"`
	P99AccessLatBatch float64 `json:"p99_access_lat_batch,omitempty"`
	SteadyMigrateBW   float64 `json:"steady_migrate_bw_mbps,omitempty"`
	CapViolations     int     `json:"cap_violations,omitempty"`
	Err               string  `json:"err,omitempty"`
}

// Options scales scenario generation.
type Options struct {
	// Quick trims the grid to sizes that run in well under a second.
	Quick bool
	// Seed is the base deterministic seed (default 1).
	Seed int64
	// NodeList overrides the machine-size sweep with explicit
	// topology.Grid node counts (each in 1..topology.MaxNodes); empty
	// keeps the per-family defaults.
	NodeList []int
	// CoresPerNode sets cores per node for every generated scenario
	// (0: the Opteron host's 4).
	CoresPerNode int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) pages() []int {
	if o.Quick {
		return []int{64, 1024}
	}
	return []int{64, 256, 1024, 4096}
}

func (o Options) nodes() []int {
	if len(o.NodeList) > 0 {
		return o.NodeList
	}
	if o.Quick {
		return []int{2, 4}
	}
	return []int{2, 4, 8}
}

// Family is a named scenario generator plus its per-scenario runner.
type Family struct {
	Name     string
	Desc     string
	Generate func(o Options) []Scenario
	Run      func(s Scenario) Result
}

var families = map[string]Family{}

// Register adds a family to the registry; duplicate names panic (the
// registry is populated from init functions only).
func Register(f Family) {
	if _, dup := families[f.Name]; dup {
		panic("exp: duplicate family " + f.Name)
	}
	families[f.Name] = f
}

// Families lists the registered family names, sorted.
func Families() []string {
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Describe returns a family's one-line description.
func Describe(name string) string { return families[name].Desc }

// Scenarios expands the named families (all when names is empty) into
// their scenario lists, in family order then generation order.
func Scenarios(names []string, o Options) ([]Scenario, error) {
	if len(names) == 0 {
		names = Families()
	}
	var out []Scenario
	for _, n := range names {
		f, ok := families[n]
		if !ok {
			return nil, fmt.Errorf("exp: unknown family %q (have %v)", n, Families())
		}
		out = append(out, f.Generate(o)...)
	}
	return out, nil
}

// RunScenario executes one scenario through its family runner.
func RunScenario(s Scenario) Result {
	f, ok := families[s.Family]
	if !ok {
		return Result{Scenario: s, Err: fmt.Sprintf("exp: unknown family %q", s.Family)}
	}
	return f.Run(s)
}

// ---- migration family: the paper's core grid ----

func init() {
	Register(Family{
		Name: "migration",
		Desc: "patched/unpatched x sync/lazy-kernel/lazy-user x pages x nodes: workset follows a migrating thread",
		Generate: func(o Options) []Scenario {
			var out []Scenario
			for _, nodes := range o.nodes() {
				for _, pages := range o.pages() {
					for _, mode := range []core.Mode{core.Sync, core.LazyKernel, core.LazyUser} {
						strategies := []bool{true, false}
						if mode == core.LazyKernel {
							// Kernel next-touch never calls move_pages,
							// so the patch flag cannot matter; one run.
							strategies = []bool{true}
						}
						for _, patched := range strategies {
							strat := "patched"
							if !patched {
								strat = "unpatched"
							}
							out = append(out, Scenario{
								ID:      fmt.Sprintf("migration/%s/%s/p%d/n%d", strat, mode, pages, nodes),
								Family:  "migration",
								Patched: patched,
								Mode:    mode.String(),
								Pages:   pages,
								Nodes:   nodes,
								Seed:    o.seed(),
								Cores:   o.CoresPerNode,
							})
						}
					}
				}
			}
			return out
		},
		Run: runMigration,
	})
}

func modeOf(s string) (core.Mode, error) {
	for _, m := range []core.Mode{core.Sync, core.LazyKernel, core.LazyUser} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown mode %q", s)
}

// runMigration reproduces the paper's central scenario: a thread owns a
// workset on node 0, the scheduler moves it to the farthest node, and
// the workset follows per the configured mode, synchronously or lazily,
// with the selected move_pages generation. Measured phase: thread move
// through the first full sweep of the buffer.
func runMigration(s Scenario) Result {
	res := Result{Scenario: s}
	mode, err := modeOf(s.Mode)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	sys := numamig.New(numamig.Config{Nodes: s.Nodes, CoresPerNode: s.Cores, Seed: s.Seed})
	mgr := sys.NewManager(mode, s.Patched)
	size := int64(s.Pages) * model.PageSize
	target := topology.NodeID(s.Nodes - 1)
	var dur sim.Time

	err = sys.Run(func(t *numamig.Task) {
		buf := numamig.MustAlloc(t, size, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		mgr.Attach(t, buf.Region())
		start := t.P.Now()
		if err := mgr.MoveThread(t, sys.Machine.Nodes[target].Cores[0]); err != nil {
			panic(err)
		}
		if err := buf.Access(t, numamig.Stream, false); err != nil {
			panic(err)
		}
		dur = t.P.Now() - start
		// Invariant: the whole workset followed the thread.
		hist, absent := buf.NodeHistogram(t)
		if absent != 0 || hist[target] != s.Pages {
			res.Err = fmt.Sprintf("workset did not follow thread: hist=%v absent=%d", hist, absent)
		}
	})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	fill(&res, sys, size, dur)
	return res
}

// ---- replication family: the §6 read-only replication extension ----

func init() {
	Register(Family{
		Name: "replication",
		Desc: "static vs replicated reads of one hot shared buffer, one reader thread per node",
		Generate: func(o Options) []Scenario {
			var out []Scenario
			for _, nodes := range o.nodes() {
				for _, pages := range o.pages() {
					for _, mode := range []string{"static", "replicated"} {
						out = append(out, Scenario{
							ID:      fmt.Sprintf("replication/%s/p%d/n%d", mode, pages, nodes),
							Family:  "replication",
							Patched: true,
							Mode:    mode,
							Pages:   pages,
							Nodes:   nodes,
							Seed:    o.seed(),
							Cores:   o.CoresPerNode,
						})
					}
				}
			}
			return out
		},
		Run: runReplication,
	})
}

// runReplication sweeps one node-0 buffer from a reader thread per node,
// with or without read-only replication. Measured phase: all readers'
// first-to-last sweep makespan.
func runReplication(s Scenario) Result {
	const sweeps = 4
	res := Result{Scenario: s}
	sys := numamig.New(numamig.Config{Nodes: s.Nodes, CoresPerNode: s.Cores, Seed: s.Seed})
	size := int64(s.Pages) * model.PageSize
	ready := sim.NewEvent(sys.Eng)
	var buf *numamig.Buffer
	var start, last sim.Time

	sys.Proc.Spawn("setup", 0, func(t *numamig.Task) {
		buf = numamig.MustAlloc(t, size, numamig.Bind(0))
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		if s.Mode == "replicated" {
			if _, err := t.ReplicateRange(buf.Base, size); err != nil {
				panic(err)
			}
		}
		start = t.P.Now()
		ready.Fire()
	})
	for n := 0; n < s.Nodes; n++ {
		core := sys.Machine.Nodes[n].Cores[0]
		sys.Proc.Spawn(fmt.Sprintf("reader%d", n), core, func(t *numamig.Task) {
			ready.Wait(t.P)
			for sweep := 0; sweep < sweeps; sweep++ {
				if err := t.AccessRange(buf.Base, size, numamig.Blocked, false); err != nil {
					panic(err)
				}
			}
			if end := t.P.Now(); end > last {
				last = end
			}
		})
	}
	if err := sys.Eng.Run(); err != nil {
		res.Err = err.Error()
		return res
	}
	fill(&res, sys, int64(s.Nodes)*size*sweeps, last-start)
	return res
}

// fill populates the shared metrics from the system's kernel counters.
func fill(res *Result, sys *numamig.System, bytes int64, dur sim.Time) {
	fillStats(res, sys.Stats(), sys.MigratedBytes()/1e6, bytes, dur)
}

// fillStats populates the shared metrics from a kernel-stats snapshot;
// the single place the Result columns are derived, shared by every
// family runner.
func fillStats(res *Result, st kern.Stats, migratedMB float64, bytes int64, dur sim.Time) {
	res.SimSeconds = dur.Seconds()
	if dur > 0 {
		res.MBps = float64(bytes) / dur.Seconds() / 1e6
	}
	res.PagesMoved = st.MovePagesPages + st.NTMigrations + st.MigratePages + st.NumaPagesPromoted + st.PagesDemoted
	res.MigratedMB = migratedMB
	res.Faults = st.Faults
	res.Syscalls = st.Syscalls
	res.TLBShootdowns = st.TLBShootdowns
	res.RemoteMB = st.RemoteBytes / 1e6
	res.LocalMB = st.LocalBytes / 1e6
	res.NumaHints = st.NumaHintFaults
	res.Demoted = st.PagesDemoted
	res.Flips = st.PromoteDemoteFlips
	res.RateLimited = st.PromoteRateLimited
}
