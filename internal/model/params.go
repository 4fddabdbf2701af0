// Package model holds every calibrated constant of the simulated platform
// in one documented place. The values are derived from the measurements
// the paper itself reports for its experimentation host (4x quad-core
// Opteron 8347HE, 1.9 GHz, HyperTransport, Linux 2.6.27):
//
//   - kernel page copy runs at ~1 GB/s per core (§4.2),
//   - move_pages base overhead ~160 us, migrate_pages ~400 us (§4.2),
//   - patched move_pages sustains ~600 MB/s, migrate_pages ~780 MB/s,
//   - control (locking, page-table updates) is 38 % of move_pages cost and
//     20 % of the kernel next-touch cost (Fig. 6),
//   - kernel next-touch reaches ~800 MB/s even for small buffers (Fig. 5),
//   - parallel migration saturates ~1.3 GB/s with 4 threads (Fig. 7),
//   - NUMA factor 1.2-1.4 (§2.1, §4.1).
package model

import "numamig/internal/sim"

// PageSize is the small-page size of the simulated machine (4 KiB).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// HugePageSize is the huge-page size (2 MiB) used by the huge-page
// extension experiments.
const HugePageSize = 2 << 20

// PTEChunkPages is the number of PTEs covered by one page-table page; the
// kernel holds one PTE lock per such chunk (2 MiB of address space).
const PTEChunkPages = 512

// TierClass describes one memory tier's behaviour on the fluid network:
// how its node-local memory controller bandwidth and access latency
// compare to plain DRAM. Tier 0 is the fast (DRAM) tier; higher ids are
// progressively slower tiers (CXL-attached expanders, persistent
// memory). Zero-valued scales mean "same as DRAM" so a sparsely
// populated class list stays usable.
type TierClass struct {
	// Name labels the tier in diagnostics ("dram", "cxl").
	Name string
	// BandwidthScale multiplies NodeCtrlBW for nodes of this tier
	// (e.g. 0.4 for a CXL expander behind a x8 link). <= 0 means 1.
	BandwidthScale float64
	// LatencyScale multiplies the application-visible access penalty
	// for data resident on this tier (CXL adds ~2-3x DRAM latency).
	// <= 0 means 1.
	LatencyScale float64
}

// Bandwidth returns the normalized bandwidth multiplier.
func (c TierClass) Bandwidth() float64 {
	if c.BandwidthScale <= 0 {
		return 1
	}
	return c.BandwidthScale
}

// Latency returns the normalized latency multiplier.
func (c TierClass) Latency() float64 {
	if c.LatencyScale <= 0 {
		return 1
	}
	return c.LatencyScale
}

// CXLTier is a representative CXL memory-expander class: roughly 40% of
// a local DDR channel's bandwidth and 2.2x its effective latency,
// matching published Type-3 device measurements.
func CXLTier() TierClass {
	return TierClass{Name: "cxl", BandwidthScale: 0.4, LatencyScale: 2.2}
}

// Params carries all cost-model constants. Zero value is not usable; call
// Default for the paper's calibrated platform.
type Params struct {
	// ---- Bandwidths (bytes/second) ----

	// UserCopyRate is the per-core user-space copy rate (MMX/SSE
	// optimized memcpy), the top curve of Figure 4.
	UserCopyRate float64
	// KernCopyRate is the per-core kernel page-copy rate; the kernel does
	// not use vector instructions (§4.2: "pages are copied during
	// move_pages at only 1 GB/s").
	KernCopyRate float64
	// NodeCtrlBW is the per-node memory-controller bandwidth.
	NodeCtrlBW float64
	// HTLinkBW is one HyperTransport link's bandwidth.
	HTLinkBW float64
	// MigChanBW is the effective aggregate bandwidth of the kernel page
	// migration path between one pair of nodes: page-granular copies with
	// page-table maintenance interleave poorly and saturate below the raw
	// link rate. Calibrated so 4-thread lazy migration peaks ~1.3 GB/s
	// (Fig. 7).
	MigChanBW float64
	// MigChanSyncBW is the same channel as seen by the batched
	// move_pages/migrate_pages path, which additionally writes back
	// status arrays and maintains pagevecs between copies; it saturates
	// lower, which is why parallel synchronous migration tops out
	// ~50-60% above single-threaded while lazy reaches ~1.3 GB/s
	// (Fig. 7, §4.4).
	MigChanSyncBW float64

	// ---- Syscall and VM costs ----

	SyscallBase   sim.Time // bare user->kernel->user transition
	MmapBase      sim.Time // mmap/munmap setup
	MprotectBase  sim.Time // mprotect fixed cost (excl. TLB flush)
	MprotectPage  sim.Time // per-page PTE protection change
	MadviseBase   sim.Time // madvise fixed cost
	MadvisePage   sim.Time // per-page next-touch marking (PTE walk)
	TLBShootBase  sim.Time // local TLB flush
	TLBShootCore  sim.Time // per remote core IPI cost of a shootdown
	FaultBase     sim.Time // hardware fault + kernel entry + VMA walk
	DemandZero    sim.Time // allocate + zero a new anonymous page
	SignalDeliver sim.Time // SIGSEGV: kernel -> user handler entry
	SignalReturn  sim.Time // sigreturn back to the faulting instruction
	CtxSwitch     sim.Time // thread migration to another core

	// ---- move_pages / migrate_pages ----

	// MovePagesBase is the fixed syscall overhead; mostly serialized
	// setup (task lookup, per-CPU page-vec drain) modelled under the
	// global migration lock, which is why parallel calls on small
	// buffers do not scale (Fig. 7, §4.4).
	MovePagesBase       sim.Time
	MovePagesBaseLocked sim.Time // portion of MovePagesBase under mig lock
	// MovePagesCtl is per-page control: locking, page-table updates,
	// status handling. 38% of the per-page cost at 4 us/page copy
	// (Fig. 6a) gives ~2.45 us.
	MovePagesCtl sim.Time
	// MovePagesCtlLocked is the part of MovePagesCtl held under the
	// global LRU/migration lock.
	MovePagesCtlLocked sim.Time
	// UnpatchedScanEntry is the per-element cost of the unpatched
	// implementation's linear lookup over the destination-node array for
	// every page (the quadratic bug fixed in 2.6.29).
	UnpatchedScanEntry sim.Time
	// MigratePagesBase is migrate_pages' fixed cost (whole address-space
	// traversal, ~400 us per §4.2).
	MigratePagesBase sim.Time
	// MigratePagesCtl is per-page control for migrate_pages; in-order
	// traversal locks less (§4.2: better locality, ~780 MB/s).
	MigratePagesCtl       sim.Time
	MigratePagesCtlLocked sim.Time

	// ---- Kernel next-touch ----

	// NTFaultCtl is fault + migration control per page for the dedicated
	// kernel next-touch path (20% of ~5 us/page, Fig. 6b).
	NTFaultCtl       sim.Time
	NTFaultCtlLocked sim.Time // portion under the global LRU lock

	// ---- Automatic NUMA balancing (internal/autonuma) ----
	//
	// The AutoNUMA scanner is the transparent counterpart of the paper's
	// explicit next-touch policies: a per-process kernel thread
	// periodically strips access from mapped pages (like
	// change_prot_numa's PROT_NONE hinting marks) so the next touch
	// faults, reveals who uses the page, and lets the balancer promote
	// it toward its accessor through the shared migration engine.

	// NumaScanPeriod is the initial delay between scanner ticks. The
	// scanner adapts within [NumaScanPeriodMin, NumaScanPeriodMax]:
	// ticks that surface remote faults shrink the period, all-local
	// ticks back off, mirroring Linux's numa_scan_period adjustment.
	NumaScanPeriod    sim.Time
	NumaScanPeriodMin sim.Time
	NumaScanPeriodMax sim.Time
	// NumaScanPages bounds the pages examined per scanner tick (soft
	// bound, rounded up to the enclosing PTE chunk).
	NumaScanPages int
	// NumaScanBase is the fixed per-tick walk setup cost.
	NumaScanBase sim.Time
	// NumaScanPage is the per-examined-PTE arming cost (PTE walk plus
	// protection strip).
	NumaScanPage sim.Time
	// NumaHintFault is the per-page hinting-fault service cost (fault
	// entry, PTE restore, statistics update).
	NumaHintFault sim.Time
	// NumaHintCtl is the per-page migration control cost on the hinting
	// fault path; NumaHintCtlLocked is the fraction under the global LRU
	// lock.
	NumaHintCtl       sim.Time
	NumaHintCtlLocked sim.Time
	// NumaFaultThreshold is the decayed per-node fault count a task must
	// accumulate on a node's memory before its pages are promoted;
	// filters one-off touches like Linux's two-stage migration filter.
	NumaFaultThreshold float64
	// NumaFaultDecay multiplies every task's per-node fault counters
	// once per scanner tick (exponential decay of locality history).
	NumaFaultDecay float64

	// ---- Memory pressure: watermarks + kswapd-style demotion ----
	//
	// Every node carries min/low/high watermarks (fractions of its frame
	// count, mirroring the kernel's per-zone watermarks). The placement
	// layer (internal/placement) steers allocations away from nodes at
	// or below their low watermark; a per-node kswapd-style daemon
	// (internal/kern) demotes cold pages from pressured nodes to the
	// least-pressured nearby node through the shared migration engine.

	// WatermarkMinFrac is the min watermark as a fraction of a node's
	// total frames: below it only last-resort allocations land.
	WatermarkMinFrac float64
	// WatermarkLowFrac is the low watermark fraction: at or below it the
	// node counts as pressured (kswapd wakes, allocations prefer other
	// nodes, AutoNUMA stops promoting into it).
	WatermarkLowFrac float64
	// WatermarkHighFrac is the high watermark fraction: demotion stops
	// once free frames recover above it.
	WatermarkHighFrac float64
	// KswapdPeriod is the demotion daemon's wake interval.
	KswapdPeriod sim.Time
	// KswapdBatch bounds the pages demoted per engine request.
	KswapdBatch int
	// KswapdScanPage is the per-examined-PTE cost of the cold-page scan
	// (PTE walk plus accessed-bit aging).
	KswapdScanPage sim.Time
	// DemotionCtl is the per-page migration control cost on the demotion
	// path; DemotionCtlLocked is the fraction under the global LRU lock.
	DemotionCtl       sim.Time
	DemotionCtlLocked sim.Time

	// ---- Memory tiering: promotion/demotion interplay ----
	//
	// The tiering layer keeps the two opposing movers — AutoNUMA
	// promotion toward the accessor and kswapd demotion off pressured
	// nodes — from fighting over the same pages. Promotions stamp the
	// page with the current kswapd scan-period generation; the demotion
	// scan classifies pages by temperature and spreads them over near
	// and far tiers.

	// PromotionHysteresisPeriods is how many kswapd scan periods a
	// freshly promoted page is protected from demotion (the demotion
	// scan skips it entirely, not even aging it). Without it a page
	// promoted into a node hovering at its watermarks can be demoted the
	// very next period — the promote/demote ping-pong Linux's
	// nr_promote/demote hysteresis damps. 0 disables the protection.
	PromotionHysteresisPeriods int
	// FlipWindowPeriods is the ping-pong telemetry window: demoting a
	// page within this many scan periods of its promotion counts one
	// promote/demote flip (kern.Stats.PromoteDemoteFlips, the
	// promote_demote_flips grid column). Independent of the hysteresis
	// knob so disabling protection still measures the resulting churn.
	FlipWindowPeriods int
	// KswapdProactiveBatch bounds the pages demoted per period by the
	// proactive trickle: when a node sits between its low and high
	// watermarks (not yet pressured, but without headroom) kswapd
	// demotes up to this many genuinely cold pages per wake-up, keeping
	// room for allocation bursts before real pressure hits (Linux's
	// proactive reclaim / kswapd-vs-direct-reclaim split). 0 disables.
	KswapdProactiveBatch int

	// ---- Memory tiers (explicit CXL/slow memory) ----
	//
	// The tier map turns the flat machine into explicit memory tiers:
	// each node carries a tier id resolving to a TierClass with its own
	// bandwidth/latency multipliers on the fluid network. Tier 0 is
	// DRAM; every higher tier is slow memory, which is demotion-only
	// for the allocator — first-touch and mempolicy never place there
	// unless the policy's nodemask contains only slow nodes — and
	// placement.DemotionTarget prefers the next tier down.

	// TierClasses defines the tier classes, indexed by tier id. nil (or
	// a missing entry) means a unit class identical to DRAM.
	TierClasses []TierClass
	// NodeTier maps node id -> tier id. nil, or nodes past the end of
	// the slice, default to tier 0 (DRAM); the flat, single-tier
	// machine is therefore the zero value.
	NodeTier []int
	// PromoteRateLimitMBps rate-limits AutoNUMA promotion out of
	// slow-tier nodes, mirroring Linux's
	// numa_balancing_promote_rate_limit_MBps: each slow node owns a
	// token bucket refilled at this many MB per second of virtual
	// time (burst: one KswapdPeriod's worth, at least one page);
	// promotions that find the bucket empty are dropped and counted in
	// kern.Stats.PromoteRateLimited — the page stays put until a later
	// hinting fault retries it. <= 0 disables the limiter. Promotions
	// between fast-tier nodes are never limited.
	PromoteRateLimitMBps float64

	// ---- Migration engine retry policy ----

	// MigrateRetries is how many extra passes the migration engine makes
	// over busy (pinned) pages before reporting EBUSY, mirroring the
	// kernel's EAGAIN loop in migrate_pages().
	MigrateRetries int
	// MigrateRetryDelay is the backoff slept between retry passes.
	MigrateRetryDelay sim.Time

	// ---- Application cost model ----

	// ComputeRate is per-core useful flop rate for the LU/BLAS drivers
	// (reference-BLAS era Opteron, not vendor DGEMM).
	ComputeRate float64
	// L3Bytes is the per-socket shared L3 capacity.
	L3Bytes int64
	// StreamPenalty scales remote traffic for prefetch-friendly
	// sequential streams (latency largely hidden).
	StreamPenalty float64
	// BlockedBoost scales the NUMA distance factor for Blocked
	// (reuse/stride) remote accesses: sustained blocked-access bandwidth
	// degrades faster than the raw latency ratio because out-of-order
	// windows cannot cover the remote round trip. Effective penalty =
	// NUMAFactor * BlockedBoost.
	BlockedBoost float64
	// BatchPages is the page-batch granularity used when charging
	// aggregate per-page costs, bounding DES event counts while
	// preserving lock-contention fidelity (one PTE chunk).
	BatchPages int
}

// Default returns the parameters calibrated against the paper's host.
func Default() Params {
	return Params{
		UserCopyRate:  2.1e9,
		KernCopyRate:  1.0e9,
		NodeCtrlBW:    6.4e9,
		HTLinkBW:      8.0e9,
		MigChanBW:     1.45e9,
		MigChanSyncBW: 0.97e9,

		SyscallBase:   sim.Micros(0.15),
		MmapBase:      sim.Micros(1.0),
		MprotectBase:  sim.Micros(0.8),
		MprotectPage:  sim.Micros(0.012),
		MadviseBase:   sim.Micros(1.2),
		MadvisePage:   sim.Micros(0.06),
		TLBShootBase:  sim.Micros(1.0),
		TLBShootCore:  sim.Micros(0.4),
		FaultBase:     sim.Micros(0.35),
		DemandZero:    sim.Micros(0.9),
		SignalDeliver: sim.Micros(2.2),
		SignalReturn:  sim.Micros(0.9),
		CtxSwitch:     sim.Micros(3.0),

		MovePagesBase:         sim.Micros(158),
		MovePagesBaseLocked:   sim.Micros(120),
		MovePagesCtl:          sim.Micros(2.45),
		MovePagesCtlLocked:    sim.Micros(1.1),
		UnpatchedScanEntry:    sim.Micros(0.005),
		MigratePagesBase:      sim.Micros(400),
		MigratePagesCtl:       sim.Micros(1.25),
		MigratePagesCtlLocked: sim.Micros(0.6),

		NTFaultCtl:       sim.Micros(0.70),
		NTFaultCtlLocked: sim.Micros(0.35),

		NumaScanPeriod:     sim.Micros(250),
		NumaScanPeriodMin:  sim.Micros(125),
		NumaScanPeriodMax:  sim.Micros(8000),
		NumaScanPages:      256,
		NumaScanBase:       sim.Micros(2.0),
		NumaScanPage:       sim.Micros(0.05),
		NumaHintFault:      sim.Micros(0.45),
		NumaHintCtl:        sim.Micros(0.70),
		NumaHintCtlLocked:  sim.Micros(0.35),
		NumaFaultThreshold: 4,
		NumaFaultDecay:     0.5,

		WatermarkMinFrac:  0.02,
		WatermarkLowFrac:  0.05,
		WatermarkHighFrac: 0.08,
		KswapdPeriod:      sim.Micros(200),
		KswapdBatch:       64,
		KswapdScanPage:    sim.Micros(0.03),
		DemotionCtl:       sim.Micros(0.80),
		DemotionCtlLocked: sim.Micros(0.40),

		PromotionHysteresisPeriods: 4,
		FlipWindowPeriods:          4,
		KswapdProactiveBatch:       16,

		MigrateRetries:    4,
		MigrateRetryDelay: sim.Micros(25),

		ComputeRate:   1.15e9,
		L3Bytes:       2 << 20,
		StreamPenalty: 1.05,
		BlockedBoost:  1.55,
		BatchPages:    64,
	}
}

// TierOf returns the tier id of a node: the NodeTier entry, or 0 (DRAM)
// for nodes the map does not cover.
func (p Params) TierOf(node int) int {
	if node < 0 || node >= len(p.NodeTier) {
		return 0
	}
	if t := p.NodeTier[node]; t > 0 {
		return t
	}
	return 0
}

// TierClassOf returns the class of a tier id, defaulting to the unit
// (DRAM-equivalent) class for ids the class list does not cover.
func (p Params) TierClassOf(tier int) TierClass {
	if tier < 0 || tier >= len(p.TierClasses) {
		return TierClass{}
	}
	return p.TierClasses[tier]
}
