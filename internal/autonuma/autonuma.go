// Package autonuma is a simulated automatic-NUMA-balancing subsystem:
// the transparent counterpart of the paper's explicit next-touch
// policies, modelled after the mechanism Linux adopted after the
// paper's era (CONFIG_NUMA_BALANCING: periodic PROT_NONE hinting-fault
// sampling plus fault-driven page promotion).
//
// Three cooperating parts:
//
//   - A per-process scanner daemon — a simulated kernel thread on the
//     DES engine — periodically walks the mapped address space and arms
//     PTE ranges with hinting marks (vm.PTENumaHint, protection
//     stripped like change_prot_numa), through
//     kern.Process.ArmNumaHints. The scan period adapts between
//     configured bounds: remote faults shrink it, all-local ticks back
//     it off, mirroring numa_scan_period.
//
//   - The hinting-fault path in internal/kern (fault.go / access.go)
//     restores access and reports each faulted (page, node) batch to
//     the Balancer, which maintains per-task × per-node fault
//     statistics with exponential decay.
//
//   - The placement policy promotes pages toward their accessor once
//     the task's decayed fault count on the page's home node passes a
//     threshold (filtering one-off touches, like the kernel's
//     two-stage migration filter). Two further gates damp harmful
//     promotion: the last-toucher filter requires two consecutive
//     faults from the same task before a page moves (damping
//     shared-page ping-pong, like the kernel's last-CPU/PID check),
//     and the placement layer's pressure gate withholds promotion
//     into nodes at their low watermark. All page movement is issued
//     through the shared migration engine (internal/migrate,
//     PathNumaHint), so pinned pages, busy retry and batching behave
//     identically to the manual migration paths. Every promoted page
//     is stamped with the current kswapd scan-period generation
//     (PTE.PromoGen): the demotion scan's hysteresis then refuses to
//     demote it for Params.PromotionHysteresisPeriods periods, closing
//     the promote/demote ping-pong loop from the other side (the
//     tiering scenario family measures the effect as
//     promote_demote_flips).
//
// Unlike the paper's policies, no application or runtime hint is ever
// required: locality is discovered from the faults alone. The autonuma
// scenario family in internal/exp quantifies the resulting trade-off
// (transparent balancing pays sampling overhead and reaction latency;
// explicit next-touch pays API intrusiveness).
package autonuma

import (
	"fmt"

	"numamig/internal/kern"
	"numamig/internal/migrate"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Config selects the balancer's optional behaviours. The scan and
// fault knobs come from the kernel's model.Params (NumaScan*,
// NumaFault*).
type Config struct {
	// NoLastToucher disables the last-toucher filter. By default the
	// balancer records the last task that took a hinting fault on each
	// page and promotes only after two consecutive faults from the same
	// task — damping the ping-pong of pages shared by tasks on
	// different nodes, like the kernel's last-CPU/PID check in
	// should_numa_migrate_memory.
	NoLastToucher bool
}

// Stats counts balancer activity.
type Stats struct {
	ScanTicks     uint64 // scanner wake-ups that did work
	PagesArmed    uint64 // hinting marks installed
	LocalFaults   uint64 // hinting faults on already-local pages
	RemoteFaults  uint64 // hinting faults on remote pages
	PagesPromoted uint64 // migration orders issued (engine may EBUSY some)
	Backoffs      uint64 // ticks that doubled the scan period
	PingPongSkips uint64 // promotions withheld by the last-toucher filter
	PressureSkips uint64 // promotions withheld because the target is pressured
}

// lastTouch is a page's recent toucher history: the task that took the
// last hinting fault on it and its run of consecutive faults.
type lastTouch struct {
	tid    int
	streak uint8
}

// Balancer is the per-process automatic NUMA balancing policy plus its
// scanner daemon. Create with Enable; it registers itself as the
// process's kern.NumaBalancer and starts scanning immediately.
type Balancer struct {
	Proc *kern.Process
	Cfg  Config

	period sim.Time
	cursor vm.VPN
	// tasks holds each task's decayed locality history: hinting-fault
	// counts indexed by the node the faulted page resided on.
	tasks   map[int][]float64
	last    map[vm.VPN]lastTouch // last-toucher filter state
	remote  uint64               // remote faults since the last tick
	stopped bool

	Stats Stats
}

// Enable builds a balancer for the process, registers its fault hook,
// and registers the scanner on the kernel's daemon hub (one batched
// tick per period instead of a parked proc per scanner). The scanner
// retires itself on the first poll after the process's last thread
// exits.
func Enable(proc *kern.Process, cfg Config) *Balancer {
	p := &proc.K.P
	b := &Balancer{
		Proc: proc,
		Cfg:  cfg,
		// Params can come from outside, so clamp the initial period
		// into the adaptive bounds.
		period: min(max(p.NumaScanPeriod, p.NumaScanPeriodMin), p.NumaScanPeriodMax),
		tasks:  map[int][]float64{},
		last:   map[vm.VPN]lastTouch{},
	}
	proc.SetNumaBalancer(b)
	proc.K.Hub().Register(b)
	return b
}

// Stop makes the daemon exit at its next wake-up and unregisters the
// fault hook immediately.
func (b *Balancer) Stop() {
	b.stopped = true
	if b.Proc.NumaBalancer() == kern.NumaBalancer(b) {
		b.Proc.SetNumaBalancer(nil)
	}
}

// Period returns the current adaptive scan period.
func (b *Balancer) Period() sim.Time { return b.period }

// Name labels the proc spawned for a scanner tick.
func (b *Balancer) Name() string { return fmt.Sprintf("%s.numa_scand", b.Proc.Name) }

// Poll is the hub-driven tick decision. The scanner never idles: decay
// mutates the fault statistics every period, so every non-retired tick
// does work.
func (b *Balancer) Poll() kern.TickVerdict {
	if b.stopped || b.Proc.NumThreads() == 0 {
		return kern.TickRetire
	}
	return kern.TickRun
}

// Run is one scanner tick: decay statistics, adapt the period to the
// fault traffic of the last window, arm the next window of pages.
func (b *Balancer) Run(p *sim.Proc) {
	kp := &b.Proc.K.P
	b.decay()
	// Adapt to the fault traffic of the last window — but only once
	// a window has actually been sampled: before the first arming
	// pass, zero remote faults says nothing.
	if b.Stats.ScanTicks > 0 {
		if b.remote == 0 {
			// Quiet window: everything local, back off
			// (numa_scan_period growth) so a converged workload stops
			// paying for sampling.
			if b.period < kp.NumaScanPeriodMax {
				b.period *= 2
				if b.period > kp.NumaScanPeriodMax {
					b.period = kp.NumaScanPeriodMax
				}
				b.Stats.Backoffs++
			}
		} else {
			// Remote traffic: rescan aggressively.
			b.period /= 2
			if b.period < kp.NumaScanPeriodMin {
				b.period = kp.NumaScanPeriodMin
			}
		}
	}
	b.remote = 0
	armed, next := b.Proc.ArmNumaHints(p, b.cursor, kp.NumaScanPages)
	b.cursor = next
	b.Stats.ScanTicks++
	b.Stats.PagesArmed += uint64(armed)
}

// decay ages every task's fault history by one tick.
func (b *Balancer) decay() {
	factor := b.Proc.K.P.NumaFaultDecay
	for _, faults := range b.tasks {
		for i := range faults {
			faults[i] *= factor
		}
	}
}

// HintFaults implements kern.NumaBalancer: record the fault batch in
// the task's locality history and return promotion orders for the
// remote pages whose home node has accumulated enough faults. Two
// gates damp harmful promotion: the last-toucher filter requires two
// consecutive faults from the same task before a page moves (shared
// pages touched alternately from different nodes never promote), and
// the placement layer's pressure gate withholds promotion into nodes
// at or below their low watermark (pulling pages into a pressured node
// would only force kswapd to demote something right back out).
func (b *Balancer) HintFaults(t *kern.Task, pages []vm.VPN, src []topology.NodeID) []migrate.Op {
	faults := b.tasks[t.TID]
	if faults == nil {
		faults = make([]float64, b.Proc.K.M.NumNodes())
		b.tasks[t.TID] = faults
	}
	dst := t.Node()
	allowDst := b.Proc.K.Placer.AllowPromotion(dst)
	threshold := b.Proc.K.P.NumaFaultThreshold
	var ops []migrate.Op
	for i, pg := range pages {
		// Last-toucher history: every hinting fault extends or resets
		// the page's consecutive-toucher streak.
		lt := b.last[pg]
		if lt.tid == t.TID {
			if lt.streak < ^uint8(0) {
				lt.streak++
			}
		} else {
			lt = lastTouch{tid: t.TID, streak: 1}
		}
		b.last[pg] = lt
		faults[src[i]]++
		if src[i] == dst {
			b.Stats.LocalFaults++
			continue
		}
		b.Stats.RemoteFaults++
		b.remote++
		if faults[src[i]] < threshold {
			continue
		}
		if !b.Cfg.NoLastToucher && lt.streak < 2 {
			b.Stats.PingPongSkips++
			continue
		}
		if !allowDst {
			b.Stats.PressureSkips++
			continue
		}
		ops = append(ops, migrate.Op{VPN: pg, Dst: dst})
	}
	b.Stats.PagesPromoted += uint64(len(ops))
	return ops
}
