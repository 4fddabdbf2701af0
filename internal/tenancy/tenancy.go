// Package tenancy is the multi-tenant accounting layer under the
// kernel: per-tenant residency ledgers with cgroup-style fast-tier
// caps, priority classes, and the SLO instrumentation the serve
// scenario family grids.
//
// A Ledger tracks, per tenant, how many resident pages sit on each
// node and how many of those are on the fast (DRAM, tier-0) tier. The
// kernel charges the ledger at the same instants it touches mem.Phys —
// after a demand allocation lands, after a frame is freed on unmap,
// and after a migration op has both allocated its destination and
// freed its source — so a TenantResident event stream replayed from
// the telemetry bus reconstructs exactly the mem.Phys allocation
// gauges (the differential-test contract; see TopicTenantResident).
//
// The cap contract is cgroup-like: an allocation that would push a
// tenant's fast-tier residency past its cap is redirected down the
// demotion path (placement.DemotionTarget) instead of spilling across
// the DRAM tier, and the per-node kswapd daemons additionally demote
// an at-cap tenant's cold fast pages in the background. A page that
// still lands on the fast tier beyond the cap — possible only when no
// slow-tier node can absorb the redirect — is counted in
// CapViolations and published as a CapViolation event; the serve
// family requires zero per cell.
//
// Determinism: a Ledger belongs to one simulated System and is only
// driven from simulated code under the engine token, so it needs no
// locking and its event stream is byte-identical at any experiment
// parallelism. Tenants are kept in admission order; nothing iterates
// a map.
package tenancy

import (
	"numamig/internal/telemetry"
	"numamig/internal/topology"
)

// Class is a tenant's priority class.
type Class uint8

const (
	// ClassBatch tenants run throughput work: their migration batches
	// queue at normal priority and their probes tolerate slow-tier
	// residency.
	ClassBatch Class = iota
	// ClassLatencySensitive tenants' faults and migration requests are
	// never queued behind a batch tenant's batches: their requests
	// carry priority 1 through the migration engine's lock queues.
	ClassLatencySensitive

	// NumClasses bounds the class space.
	NumClasses
)

// String returns the class's grid label.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassLatencySensitive:
		return "ls"
	}
	return "unknown"
}

// Priority is the migration-request priority the class maps to
// (sim.Resource.AcquirePri): batch work at 0, latency-sensitive at 1.
func (c Class) Priority() int {
	if c == ClassLatencySensitive {
		return 1
	}
	return 0
}

// Tenant is one admitted tenant's ledger entry.
type Tenant struct {
	// ID is the tenant's stable id (the Task field of its telemetry
	// events); Name labels diagnostics.
	ID   int
	Name string
	// Class is the tenant's priority class.
	Class Class
	// CapPages is the fast-tier residency cap in pages; <= 0 means
	// uncapped. Admit sets it and no code writes it after: the ledger's
	// count of tenants at their cap relies on that.
	CapPages int

	resident map[topology.NodeID]int
	total    int
	fast     int
	live     bool
}

// Resident returns the tenant's total resident pages across all nodes.
func (t *Tenant) Resident() int { return t.total }

// FastResident returns the tenant's resident pages on the fast (tier-0)
// tier — the quantity CapPages bounds.
func (t *Tenant) FastResident() int { return t.fast }

// ResidentOn returns the tenant's resident pages on one node.
func (t *Tenant) ResidentOn(n topology.NodeID) int { return t.resident[n] }

// Live reports whether the tenant has been admitted and not yet exited.
func (t *Tenant) Live() bool { return t.live }

// atCap reports whether t is live and sits at or past its cap.
func (t *Tenant) atCap() bool {
	return t.live && t.CapPages > 0 && t.fast >= t.CapPages
}

// Ledger is one System's tenant accounting: residency per tenant per
// node, fast-tier cap enforcement state, and the tenant lifecycle
// telemetry.
type Ledger struct {
	bus    *telemetry.Bus
	tierOf func(topology.NodeID) int

	tenants []*Tenant // admission order; exited tenants stay for accounting
	byID    map[int]*Tenant
	atCap   int // live tenants at or past their cap (Tenant.atCap)

	// Admitted / Exited count tenant lifecycle transitions.
	Admitted int
	Exited   int
	// CapViolations counts pages charged onto the fast tier beyond
	// their tenant's cap (must stay 0 in every serve cell).
	CapViolations int
}

// NewLedger creates a ledger publishing on bus (nil: no telemetry,
// accounting only — the fuzz harness mode). tierOf maps a node to its
// memory tier (nil: everything is tier 0).
func NewLedger(bus *telemetry.Bus, tierOf func(topology.NodeID) int) *Ledger {
	if tierOf == nil {
		tierOf = func(topology.NodeID) int { return 0 }
	}
	return &Ledger{bus: bus, tierOf: tierOf, byID: make(map[int]*Tenant)}
}

func (l *Ledger) publish(ev telemetry.Event) {
	if l.bus != nil {
		l.bus.Publish(ev)
	}
}

// Lookup returns the tenant with the given id, or nil.
func (l *Ledger) Lookup(id int) *Tenant { return l.byID[id] }

// Admit registers a tenant and publishes TenantAdmit. Admitting an id
// twice panics — ids are the stable key of the event stream.
func (l *Ledger) Admit(id int, name string, class Class, capPages int) *Tenant {
	if l.byID[id] != nil {
		panic("tenancy: tenant id admitted twice")
	}
	t := &Tenant{
		ID: id, Name: name, Class: class, CapPages: capPages,
		resident: make(map[topology.NodeID]int),
		live:     true,
	}
	l.tenants = append(l.tenants, t)
	l.byID[id] = t
	l.Admitted++
	l.publish(telemetry.Event{
		Topic: telemetry.TopicTenantAdmit,
		Node:  telemetry.NoNode, Dst: telemetry.NoNode,
		Task: id, Pages: capPages, Value: float64(class),
	})
	return t
}

// WouldBreach reports whether charging pages more fast-tier pages
// would push the tenant past its cap.
func (t *Tenant) WouldBreach(pages int) bool {
	return t.CapPages > 0 && t.fast+pages > t.CapPages
}

// addFast changes the tenant's fast-tier residency by delta, keeping
// the at-cap count in step.
func (l *Ledger) addFast(t *Tenant, delta int) {
	was := t.atCap()
	t.fast += delta
	if now := t.atCap(); now != was {
		if now {
			l.atCap++
		} else {
			l.atCap--
		}
	}
}

// chargeFast folds pages fast-tier pages into the tenant and returns
// how many of them landed beyond the cap.
func (l *Ledger) chargeFast(t *Tenant, pages int) int {
	l.addFast(t, pages)
	if t.CapPages <= 0 || t.fast <= t.CapPages {
		return 0
	}
	over := t.fast - t.CapPages
	if over > pages {
		over = pages
	}
	return over
}

// Charge records pages newly resident pages of t on node (a demand
// allocation landing) and publishes one TenantResident event. Pages
// landing on the fast tier beyond the cap are counted and published as
// a CapViolation.
func (l *Ledger) Charge(t *Tenant, node topology.NodeID, pages int) {
	if pages == 0 {
		return
	}
	if pages < 0 {
		panic("tenancy: negative charge")
	}
	t.resident[node] += pages
	t.total += pages
	if l.tierOf(node) == 0 {
		if over := l.chargeFast(t, pages); over > 0 {
			l.CapViolations += over
			l.publish(telemetry.Event{
				Topic: telemetry.TopicCapViolation,
				Node:  node, Dst: telemetry.NoNode,
				Task: t.ID, Pages: over,
			})
		}
	}
	l.publish(telemetry.Event{
		Topic: telemetry.TopicTenantResident,
		Node:  node, Dst: telemetry.NoNode,
		Task: t.ID, Pages: pages, Value: float64(t.total),
	})
}

// Release records pages of t leaving node (frames freed on unmap) and
// publishes one TenantResident event with a negative delta. Releasing
// more than is resident panics — the ledger can never go negative.
func (l *Ledger) Release(t *Tenant, node topology.NodeID, pages int) {
	if pages == 0 {
		return
	}
	if pages < 0 {
		panic("tenancy: negative release")
	}
	if t.resident[node] < pages {
		panic("tenancy: release exceeds node residency")
	}
	t.resident[node] -= pages
	t.total -= pages
	if l.tierOf(node) == 0 {
		l.addFast(t, -pages)
	}
	l.publish(telemetry.Event{
		Topic: telemetry.TopicTenantResident,
		Node:  node, Dst: telemetry.NoNode,
		Task: t.ID, Pages: -pages, Value: float64(t.total),
	})
}

// Move records pages of t migrating src -> dst (the engine has already
// allocated the destination frames and freed the sources) and
// publishes one atomic TenantResident event with Dst set, so replayers
// never observe a mid-move state. A move onto the fast tier past the
// cap counts cap violations like Charge.
func (l *Ledger) Move(t *Tenant, src, dst topology.NodeID, pages int) {
	if pages == 0 || src == dst {
		return
	}
	if pages < 0 {
		panic("tenancy: negative move")
	}
	if t.resident[src] < pages {
		panic("tenancy: move exceeds source residency")
	}
	t.resident[src] -= pages
	t.resident[dst] += pages
	srcFast, dstFast := l.tierOf(src) == 0, l.tierOf(dst) == 0
	if srcFast && !dstFast {
		l.addFast(t, -pages)
	}
	if dstFast && !srcFast {
		if over := l.chargeFast(t, pages); over > 0 {
			l.CapViolations += over
			l.publish(telemetry.Event{
				Topic: telemetry.TopicCapViolation,
				Node:  dst, Dst: telemetry.NoNode,
				Task: t.ID, Pages: over,
			})
		}
	}
	l.publish(telemetry.Event{
		Topic: telemetry.TopicTenantResident,
		Node:  src, Dst: dst,
		Task: t.ID, Pages: pages, Value: float64(t.total),
	})
}

// Exit retires the tenant, drains any residual residency, publishes
// TenantExit and returns the pages drained. A tenant that unmapped
// everything before exiting (the serve contract) drains 0; the fuzz
// harness checks the drain equals exactly what was charged minus what
// was released.
func (l *Ledger) Exit(t *Tenant) int {
	if !t.live {
		panic("tenancy: exit of non-live tenant")
	}
	if t.atCap() {
		l.atCap--
	}
	t.live = false
	residual := t.total
	t.resident = make(map[topology.NodeID]int)
	t.total, t.fast = 0, 0
	l.Exited++
	l.publish(telemetry.Event{
		Topic: telemetry.TopicTenantExit,
		Node:  telemetry.NoNode, Dst: telemetry.NoNode,
		Task: t.ID, Pages: residual,
	})
	return residual
}

// OverCapOn returns the first-admitted live tenant sitting at or past
// its fast-tier cap with pages resident on node, or nil. The per-node
// kswapd daemons use it to pick the tenant whose cold pages the
// background cap-reclaim pass demotes. With no tenant at its cap, the
// common case on every idle kswapd poll, it returns nil without a scan.
func (l *Ledger) OverCapOn(node topology.NodeID) *Tenant {
	if l.atCap == 0 {
		return nil
	}
	for _, t := range l.tenants {
		if t.atCap() && t.resident[node] > 0 {
			return t
		}
	}
	return nil
}
