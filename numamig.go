// Package numamig is a library-level reproduction of
//
//	Goglin & Furmento, "Enabling High-Performance Memory Migration for
//	Multithreaded Applications on Linux", MTAAP/IPDPS 2009.
//
// It provides a deterministic discrete-event simulation of a cc-NUMA
// machine (by default the paper's 4-socket quad-core Opteron host) and of
// the Linux virtual-memory subsystem, on which the paper's contributions
// are implemented and measurable:
//
//   - the patched (linear) vs unpatched (quadratic) move_pages system
//     call;
//   - the user-space Next-touch policy (mprotect + SIGSEGV handler);
//   - the kernel Next-touch policy (madvise mark + fault-time migration);
//   - Lazy Migration and joint thread/data migration decisions.
//
// A minimal program:
//
//	sys := numamig.New(numamig.Config{})
//	err := sys.Run(func(t *numamig.Task) {
//	    buf, _ := numamig.Alloc(t, 1<<20, numamig.Bind(0))
//	    buf.Prefault(t)
//	    nt := sys.NewKernelNT()
//	    nt.Mark(t, buf.Region())
//	    t.MigrateTo(12)            // thread moves to node 3
//	    buf.Access(t, numamig.Stream, false) // pages follow it
//	})
//
// # Migration engine architecture
//
// All page movement runs through one batched per-node pipeline,
// internal/migrate.Engine — the single place in the repository where
// pages physically change nodes. The pipeline implements the paper's
// batching insight end to end: gather the requested pages into
// PTE-chunk batches, classify them under the chunk lock, charge
// isolation/control costs partially under the global LRU lock, rewrite
// the PTEs, bulk-copy once per (source, destination) node pair through
// the fluid-modelled migration channels, retry busy (pinned) pages with
// backoff, then flush the TLBs once. Two strategies share the pipeline
// behind one interface: Patched (the linear 2.6.29 implementation) and
// Unpatched (the quadratic pre-2.6.29 one). Every consumer is a thin
// shell over the engine:
//
//   - move_pages / migrate_pages / mbind(MPOL_MF_MOVE)  (internal/kern/syscalls.go)
//   - the kernel next-touch fault path                  (internal/kern/fault.go, access.go, rect.go)
//   - the user-space next-touch SIGSEGV handler         (internal/core/nexttouch.go)
//   - read-only page replication copies                 (internal/kern/replicate.go)
//   - 2 MiB huge-page moves (huge ops, one batch each)  (internal/kern/huge.go)
//   - AutoNUMA hinting-fault promotion                  (internal/kern/numahint.go)
//   - kswapd-style cold-page demotion                   (internal/kern/kswapd.go)
//
// # Placement layer and memory pressure
//
// internal/placement is the single placement-decision layer: every
// consumer that asks "which node gets this frame?" — first-touch fault
// allocation, the mempolicy paths (including weighted interleave),
// the migration engine's destination fallback, AutoNUMA promotion,
// and replica placement — resolves through one Placer built on
// distance-ordered zonelists and per-node min/low/high watermarks
// (stored in mem.Phys, fractions in model.Params). Allocation walks
// the target's zonelist in watermark passes like
// get_page_from_freelist: prefer nodes above their low watermark,
// retry down to min, then take any free frame — so allocation
// exhaustion (mem.ErrNoMemory) never surfaces to the application
// while the machine has room anywhere.
//
// On top sits a kswapd-style demotion subsystem
// (Config.Demotion / System.EnableDemotion): one daemon per node
// wakes periodically and, when its node has sunk to the low
// watermark, runs a clock-style cold-page scan and moves unreferenced
// pages off the node through the shared migration engine
// (PathDemotion) until it recovers above its high watermark.
// AutoNUMA coordinates with pressure: promotions into nodes at their
// low watermark are skipped (Balancer.Stats.PressureSkips), and a
// last-toucher filter requires two consecutive hinting faults from
// the same task before promoting, damping shared-page ping-pong. The
// pressure scenario family (overcommit x imbalance x policy x
// demotion) quantifies the interplay.
//
// # Memory tiering v1
//
// The demotion scan is temperature-aware and cooperates with
// promotion instead of fighting it:
//
//   - promotion hysteresis: every AutoNUMA promotion stamps the page
//     with the current kswapd scan-period generation; the scan skips
//     pages promoted within Params.PromotionHysteresisPeriods periods,
//     and a demotion within Params.FlipWindowPeriods of the promotion
//     counts a promote/demote flip (Stats.PromoteDemoteFlips);
//   - temperature tiers: pages unreferenced for one scan period (warm)
//     demote to the nearest unpressured distance group, pages
//     unreferenced for two or more (cold) to the farthest
//     (placement.DemotionTarget's two tiers, Stats.PagesDemotedCold);
//   - mempolicy nodemasks: strict-bind pages never demote outside
//     their node set (Stats.KswapdMaskSkips), like Linux reclaim;
//   - proactive trickle: between the low and high watermarks the
//     daemon demotes up to Params.KswapdProactiveBatch genuinely cold
//     pages per period, keeping headroom ahead of pressure.
//
// The tiering scenario family grids a rotating hot set against
// hysteresis on/off and shows the flip count collapsing to zero while
// locality holds.
//
// # Memory tiering v2: an explicit CXL slow-memory tier
//
// Params.NodeTier and Params.TierClasses turn the flat machine into
// explicit memory tiers: slow-tier nodes (simulated CXL expanders)
// run their memory controllers at a fraction of the DRAM rate and
// charge a latency multiplier on accesses to their resident data
// (CXLTier gives a representative class). The tier contract:
//
//   - slow memory is demotion-only for the allocator — zonelists
//     order by (tier, distance), the allocation walk never spills
//     onto a slower tier, mixed nodemasks lose their slow nodes, and
//     first-touch never resolves there; only an explicit all-slow
//     binding or kswapd demotion places pages on CXL;
//   - demotion prefers the next tier down (placement.DemotionTarget;
//     bottom-tier nodes demote only within their tier);
//   - AutoNUMA promotion out of a slow node is rate-limited by a
//     per-node token bucket (Params.PromoteRateLimitMBps, Linux's
//     numa_balancing_promote_rate_limit_MBps;
//     Stats.PromoteRateLimited counts dropped orders).
//
// The tiered scenario family grids DRAM:CXL capacity ratios against
// the rate limit and hysteresis; System.SlowTierResident reads the
// slow_tier_resident gauge.
//
// # Automatic NUMA balancing (AutoNUMA)
//
// internal/autonuma adds the transparent counterpart of the paper's
// explicit policies: the automatic NUMA balancing design Linux adopted
// afterwards. Enabling it on a System starts a per-process scanner
// daemon (a simulated kernel thread on the DES engine) that
// periodically arms PTE ranges with hinting marks (vm.PTENumaHint,
// protection stripped like change_prot_numa). The next touch of an
// armed page takes a hinting fault — hooked into the kernel fault
// paths — which restores access and feeds per-task x per-node fault
// statistics with exponential decay. Once a task's decayed fault count
// on a remote node passes a threshold, its pages there are promoted to
// the toucher's node. All promotion runs through the shared migration
// engine (PathNumaHint, lazy channel), so pinned pages, busy retry and
// batching behave identically to the manual paths. The scan period
// adapts: remote faults shrink it, all-local windows back it off.
//
//	sys := numamig.New(numamig.Config{})
//	bal := sys.EnableAutoNUMA(autonuma.Config{})  // knobs from Params
//	err := sys.Run(func(t *numamig.Task) {
//	    buf := numamig.MustAlloc(t, 1<<22, numamig.Bind(0))
//	    buf.Prefault(t)
//	    t.MigrateTo(12)                    // no hints, no marks:
//	    for i := 0; i < 8; i++ {           // pages follow the faults
//	        buf.Access(t, numamig.Blocked, false)
//	    }
//	})
//	_ = bal.Stats.PagesPromoted
//
// # Experiment grid workflow
//
// internal/exp holds a registry of scenario families (the paper's
// patched/unpatched x sync/lazy-kernel/lazy-user x buffer-size x
// node-count grid, the replication extension, plus the autonuma family
// comparing manual against automatic placement on phase-shifting
// workloads) and a concurrent runner. Every scenario builds its own
// deterministic System, so the grid parallelizes perfectly and the
// same seeds always produce byte-identical output:
//
//	numabench -grid                         # full grid, aligned table
//	numabench -grid -quick -parallel 8      # trimmed grid, 8 workers
//	numabench -grid -format json > grid.json
//	numabench -grid -families autonuma -format csv
//	numabench -list                         # enumerate families
package numamig

import (
	"fmt"
	"sync/atomic"

	"numamig/internal/autonuma"
	"numamig/internal/control"
	"numamig/internal/core"
	"numamig/internal/kern"
	"numamig/internal/migrate"
	"numamig/internal/model"
	"numamig/internal/omp"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Re-exported simulation types. The aliases make the full internal
// capability surface (syscalls on Task, DES time, accounting) available
// to library users without importing internal packages.
type (
	// Task is a simulated thread; all system calls hang off it.
	Task = kern.Task
	// Process is a simulated process (address space + threads).
	Process = kern.Process
	// Kernel is the simulated operating system.
	Kernel = kern.Kernel
	// Machine is the static NUMA topology.
	Machine = topology.Machine
	// NodeID identifies a NUMA node.
	NodeID = topology.NodeID
	// CoreID identifies a core.
	CoreID = topology.CoreID
	// Addr is a simulated virtual address.
	Addr = vm.Addr
	// Policy is a NUMA allocation policy.
	Policy = vm.Policy
	// Prot is a protection mask.
	Prot = vm.Prot
	// Region is a byte range used by the next-touch APIs.
	Region = core.Region
	// UserNT is the user-space next-touch library.
	UserNT = core.UserNT
	// KernelNT is the kernel next-touch driver.
	KernelNT = core.KernelNT
	// Manager implements joint thread+data migration decisions.
	Manager = core.Manager
	// Mode selects how worksets follow threads (Sync, LazyKernel,
	// LazyUser).
	Mode = core.Mode
	// Team is an OpenMP-style thread team.
	Team = omp.Team
	// Time is virtual simulated time in nanoseconds.
	Time = sim.Time
	// Acct is a per-category cost account.
	Acct = sim.Acct
	// AccessKind describes a bulk access pattern.
	AccessKind = kern.AccessKind
	// Params carries the calibrated platform cost model.
	Params = model.Params
	// TierClass describes one memory tier's bandwidth/latency class
	// (Params.TierClasses; tier 0 is DRAM, higher tiers are slow
	// memory such as CXL expanders).
	TierClass = model.TierClass
	// SigInfo describes a delivered SIGSEGV.
	SigInfo = kern.SigInfo
	// Rect is a strided 2D region for block-granular fault/access.
	Rect = kern.Rect
	// Strategy selects the move_pages generation of the migration
	// engine (Patched or Unpatched).
	Strategy = migrate.Strategy
)

// Re-exported constants.
const (
	// Stream is a prefetch-friendly sequential access pattern.
	Stream = kern.Stream
	// Blocked is a reuse-heavy compute access pattern (full NUMA
	// penalty).
	Blocked = kern.Blocked
	// Sync migrates worksets synchronously on thread moves.
	Sync = core.Sync
	// LazyKernel marks worksets migrate-on-next-touch in the kernel.
	LazyKernel = core.LazyKernel
	// LazyUser marks worksets with the user-space next-touch library.
	LazyUser = core.LazyUser
	// PageSize is the simulated page size (4 KiB).
	PageSize = model.PageSize
	// ProtRW is read+write protection.
	ProtRW = vm.ProtRW
	// ProtRead is read-only protection.
	ProtRead = vm.ProtRead
	// ProtNone removes all access.
	ProtNone = vm.ProtNone
	// Patched is the paper's linear move_pages implementation.
	Patched = migrate.Patched
	// Unpatched is the quadratic pre-2.6.29 move_pages.
	Unpatched = migrate.Unpatched
)

// Madvise advice re-exports.
const (
	// AdvMigrateOnNextTouch marks pages migrate-on-next-touch (the
	// paper's new madvise parameter).
	AdvMigrateOnNextTouch = kern.AdvMigrateOnNextTouch
	// AdvNormal clears the mark.
	AdvNormal = kern.AdvNormal
)

// NewAcct creates an empty cost account for attaching to a task's proc.
func NewAcct() *Acct { return sim.NewAcct() }

// FromSeconds converts seconds to virtual time.
func FromSeconds(s float64) Time { return sim.FromSeconds(s) }

// StaticSchedule returns the GOMP-default static loop schedule.
func StaticSchedule() omp.Schedule { return omp.Static{} }

// CXLTier returns a representative CXL memory-expander tier class
// (~40% DRAM bandwidth, ~2.2x latency) for Params.TierClasses.
func CXLTier() TierClass { return model.CXLTier() }

// Policy constructors.
var (
	// FirstTouch allocates on the faulting thread's node.
	FirstTouch = vm.DefaultPolicy
	// Interleave round-robins pages over nodes.
	Interleave = vm.Interleave
	// Bind restricts allocation to the given nodes.
	Bind = vm.Bind
	// Preferred prefers one node with fallback.
	Preferred = vm.Preferred
	// WeightedInterleave distributes pages over nodes in proportion to
	// per-node weights (MPOL_WEIGHTED_INTERLEAVE).
	WeightedInterleave = vm.WeightedInterleave
)

// Config describes the simulated machine.
type Config struct {
	// Nodes is the NUMA node count (1..1024, built by topology.Grid);
	// 0 means the paper's host (4).
	Nodes int
	// CoresPerNode is cores per node; 0 means 4.
	CoresPerNode int
	// MemPerNode is bytes of memory per node; 0 means 8 GiB.
	MemPerNode int64
	// NodeMem overrides MemPerNode per node (index = node id; zero or
	// missing entries keep MemPerNode). Tiered machines use it to give
	// CXL expander nodes their own capacity.
	NodeMem []int64
	// Seed drives all simulated randomness (default 1).
	Seed int64
	// Demotion starts the per-node kswapd-style demotion daemons: when
	// a node sinks to its low watermark, cold pages are demoted to the
	// least-pressured nearby node through the migration engine.
	Demotion bool
	// Machine, when non-nil, is a pre-built topology (e.g.
	// topology.Hierarchy) used instead of the topology.Grid the
	// Nodes/CoresPerNode/MemPerNode knobs would generate; those knobs
	// and NodeMem are ignored then.
	Machine *Machine
	// Params overrides the cost model; nil means model.Default().
	Params *Params
}

// System is a simulated machine with its kernel and one application
// process.
type System struct {
	Eng     *sim.Engine
	Machine *Machine
	Kernel  *Kernel
	Proc    *Process
}

// New builds a system from the config.
func New(cfg Config) *System {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.CoresPerNode == 0 {
		cfg.CoresPerNode = 4
	}
	if cfg.MemPerNode == 0 {
		cfg.MemPerNode = 8 << 30
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := model.Default()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	eng := sim.NewEngine(cfg.Seed)
	m := cfg.Machine
	if m == nil {
		const l3PerNode = 2 << 20 // the paper's Opteron: 2 MiB of L3 per socket
		m = topology.Grid(cfg.Nodes, cfg.CoresPerNode, cfg.MemPerNode, l3PerNode)
		for i, b := range cfg.NodeMem {
			if i < len(m.Nodes) && b > 0 {
				m.Nodes[i].MemBytes = b
			}
		}
	}
	k := kern.New(eng, m, p, false)
	if cfg.Demotion {
		k.EnableDemotion()
	}
	s := &System{Eng: eng, Machine: m, Kernel: k, Proc: k.NewProcess("app")}
	if f := sysObserver.Load(); f != nil {
		(*f)(s)
	}
	return s
}

// sysObserver is the process-wide System construction hook
// (SetSystemObserver).
var sysObserver atomic.Pointer[func(*System)]

// SetSystemObserver installs f to be called with every System New
// constructs, before any simulated code runs — the attachment point for
// telemetry subscribers (trace recorders, event-log hashers, counters)
// on Systems built deep inside workloads or the experiment runner,
// without threading configuration through every layer. Pass nil to
// clear. f runs on whichever goroutine calls New, so it must be safe
// for concurrent calls when scenarios run in parallel; install or clear
// it only while no runner is active. The state each f invocation
// touches should be per-System (e.g. subscribers on sys.Bus()) — the
// bus itself must only be published from that System's simulated code.
func SetSystemObserver(f func(*System)) {
	if f == nil {
		sysObserver.Store(nil)
		return
	}
	sysObserver.Store(&f)
}

// EnableDemotion starts the per-node kswapd-style demotion daemons
// (idempotent; Config.Demotion does this at construction).
func (s *System) EnableDemotion() { s.Kernel.EnableDemotion() }

// Run spawns the application main thread on core 0 and executes the
// simulation to completion, returning the engine error (deadlock or
// panic) if any.
func (s *System) Run(main func(t *Task)) error {
	s.Proc.Spawn("main", 0, main)
	return s.Eng.Run()
}

// RunOn is Run with an explicit starting core.
func (s *System) RunOn(core CoreID, main func(t *Task)) error {
	s.Proc.Spawn("main", core, main)
	return s.Eng.Run()
}

// Now returns current virtual time.
func (s *System) Now() Time { return s.Eng.Now() }

// Bus returns the system's telemetry event bus (internal/telemetry):
// subscribe before Run to observe the typed event stream the kernel,
// migration engine and placement layer publish.
func (s *System) Bus() *telemetry.Bus { return s.Kernel.Bus() }

// RateLimitController is the running adaptive-rate-limit daemon.
type RateLimitController = control.Controller

// EnableAdaptiveRateLimit starts the closed-loop promotion rate-limit
// controller (internal/control): a simulated daemon that widens
// Params.PromoteRateLimitMBps when the token bucket drops promotions
// and decays it when nothing wants promoting. Call before Run.
func (s *System) EnableAdaptiveRateLimit() *RateLimitController {
	return control.EnableAdaptiveRateLimit(s.Kernel)
}

// Stats returns the kernel statistics.
func (s *System) Stats() kern.Stats { return s.Kernel.Stats }

// SlowTierResident returns the pages currently resident on slow-tier
// (Params.NodeTier > 0, e.g. CXL) nodes — the slow_tier_resident gauge
// of the tiered scenario family. Zero on flat machines.
func (s *System) SlowTierResident() int64 { return s.Kernel.Phys.SlowTierResident() }

// Migrator returns the shared migration engine for a strategy; its
// Stats expose pipeline-level counters (pages moved, retries, busy
// pages, bytes copied).
func (s *System) Migrator(st Strategy) *migrate.Engine { return s.Kernel.Migrator(st) }

// MigratedBytes returns the bytes physically copied between nodes by
// both migration engines, for migrations and replications alike.
func (s *System) MigratedBytes() float64 {
	p := s.Kernel.Migrator(Patched).Stats
	u := s.Kernel.Migrator(Unpatched).Stats
	return p.BytesMoved + p.BytesReplicated + u.BytesMoved + u.BytesReplicated
}

// NewUserNT creates the user-space next-touch library for the app
// process (installing its SIGSEGV handler). patched selects the fixed
// move_pages.
func (s *System) NewUserNT(patched bool) *UserNT {
	return core.NewUserNT(s.Proc, patched)
}

// NewKernelNT creates the kernel next-touch driver.
func (s *System) NewKernelNT() *KernelNT { return core.NewKernelNT(s.Proc) }

// AutoNUMAConfig selects EnableAutoNUMA's one optional behaviour; the
// scan and fault knobs come from the system's Params
// (NumaScan*/NumaFault*).
type AutoNUMAConfig = autonuma.Config

// EnableAutoNUMA turns on automatic NUMA balancing for the app process:
// it registers the balancer's hinting-fault hook and starts the scanner
// daemon. No application hints are needed afterwards; pages follow the
// observed access pattern. The returned balancer exposes its Stats and
// scan period.
func (s *System) EnableAutoNUMA(cfg AutoNUMAConfig) *autonuma.Balancer {
	return autonuma.Enable(s.Proc, cfg)
}

// NewManager creates a joint thread/data migration manager.
func (s *System) NewManager(mode Mode, patched bool) *Manager {
	return core.NewManager(s.Proc, mode, patched)
}

// TeamAll builds a team with one thread per core.
func (s *System) TeamAll() *Team { return omp.TeamAllCores(s.Proc) }

// TeamOn builds a team on the given cores.
func (s *System) TeamOn(cores ...CoreID) *Team { return omp.NewTeam(s.Proc, cores) }

// TeamOfNode builds a team over the cores of one node.
func (s *System) TeamOfNode(n NodeID) *Team {
	return omp.NewTeam(s.Proc, s.Machine.Nodes[n].Cores)
}

// Buffer is an allocated simulated memory range.
type Buffer struct {
	Base Addr
	Size int64
}

// Alloc maps an anonymous buffer with the given policy.
func Alloc(t *Task, size int64, pol Policy) (*Buffer, error) {
	a, err := t.Mmap(size, vm.ProtRW, pol, 0, "buffer")
	if err != nil {
		return nil, err
	}
	return &Buffer{Base: a, Size: size}, nil
}

// MustAlloc is Alloc that panics on error.
func MustAlloc(t *Task, size int64, pol Policy) *Buffer {
	b, err := Alloc(t, size, pol)
	if err != nil {
		panic(err)
	}
	return b
}

// Region returns the buffer as a next-touch region.
func (b *Buffer) Region() Region { return Region{Addr: b.Base, Len: b.Size} }

// Pages returns the page count.
func (b *Buffer) Pages() int { return vm.PagesIn(b.Base, b.Size) }

// Prefault populates every page (first-touch by the calling thread,
// honouring the buffer's policy).
func (b *Buffer) Prefault(t *Task) error {
	_, err := t.FaultIn(b.Base, b.Size, true)
	return err
}

// Access models the calling thread touching the whole buffer with the
// given pattern.
func (b *Buffer) Access(t *Task, kind AccessKind, write bool) error {
	return t.AccessRange(b.Base, b.Size, kind, write)
}

// MoveTo migrates all resident pages to a node with move_pages.
func (b *Buffer) MoveTo(t *Task, node NodeID, patched bool) error {
	_, err := t.MovePagesTo(b.Base, b.Size, node, patched)
	return err
}

// NodeHistogram counts resident pages per node (index = node id; -1
// entries, i.e. non-present pages, are reported in the second return).
// One bulk GetNodes query: a single syscall and mmap_sem round for the
// whole buffer.
func (b *Buffer) NodeHistogram(t *Task) ([]int, int) {
	hist := make([]int, t.K().M.NumNodes())
	absent := 0
	for _, n := range t.GetNodes(b.Base, b.Size) {
		if n < 0 {
			absent++
			continue
		}
		hist[n]++
	}
	return hist, absent
}

// Free unmaps the buffer.
func (b *Buffer) Free(t *Task) error { return t.Munmap(b.Base, b.Size) }

// String describes the buffer.
func (b *Buffer) String() string {
	return fmt.Sprintf("buffer[%#x +%d]", b.Base, b.Size)
}

// DefaultParams returns the calibrated cost model of the paper's host so
// callers can tweak individual constants.
func DefaultParams() Params { return model.Default() }
