// Package telemetry is the deterministic pub/sub event bus of the
// simulated kernel: the observability substrate that turns the
// cumulative counters of kern.Stats and migrate.Stats into a typed,
// ordered event stream.
//
// Emitters across the stack — the fault paths, the AutoNUMA hinting
// machinery, the kswapd demotion daemons, the shared migration engine
// and the placement layer — publish Events on per-System buses. Every
// event is stamped with the engine's virtual time plus a per-instant
// sequence number, so the full event log is a totally ordered stream
// under the same (time, sequence) tie-break discipline as the
// simulator's bucket event queue: byte-identical on every run, at any
// experiment-runner parallelism, whichever goroutine happens to hold
// the execution token when an emitter fires.
//
// Three subscriber families live alongside the bus:
//
//   - Windows (window.go): windowed time-series aggregators that turn
//     the stream into grid columns (fault_rate_hz,
//     migrate_bw_mbps_peak, p99_slow_residency_window);
//   - Recorder (trace.go): a chrome-trace / Perfetto exporter for
//     debugging a single scenario (numabench -trace=out.json);
//   - internal/control: the closed-loop policy daemons, starting with
//     the adaptive promotion rate limiter.
//
// Determinism contract. A Bus belongs to one simulated System and is
// only ever published from simulated code, which the DES engine
// serializes under a single execution token — so Publish needs no
// locking and delivery order is exactly publication order. Handlers
// run synchronously at publication time, inside simulated time but
// outside simulated cost: a subscriber must not sleep, block or
// otherwise advance the simulation. The bus with no subscribers is a
// two-branch no-op, so emitters stay on the fast path when nobody
// listens; hot call sites additionally guard event construction with
// Active.
package telemetry

import (
	"numamig/internal/sim"
	"numamig/internal/topology"
)

// Topic identifies one event type on the bus.
type Topic uint8

// The registered topics. docscheck fails CI when ARCHITECTURE.md does
// not mention every name returned by Topics.
const (
	// TopicPageFault is one batch of page faults taken by a task
	// (Pages faults; mirrors kern.Stats.Faults exactly).
	TopicPageFault Topic = iota
	// TopicNumaHintFault is one batch of AutoNUMA hinting faults
	// (Pages; mirrors kern.Stats.NumaHintFaults).
	TopicNumaHintFault
	// TopicPromote is one hinting-fault promotion batch that moved
	// Pages pages onto Dst (mirrors kern.Stats.NumaPagesPromoted).
	TopicPromote
	// TopicDemote is one kswapd shrink pass that demoted Pages pages
	// off Node; Value carries the cold (far-tier) subset (mirrors
	// kern.Stats.PagesDemoted / PagesDemotedCold).
	TopicDemote
	// TopicRateLimitDrop is one promotion order dropped by Node's
	// slow-tier token bucket (mirrors kern.Stats.PromoteRateLimited).
	TopicRateLimitDrop
	// TopicKswapdWake is one pressure wake-up of Node's demotion
	// daemon; Dur spans the reclaim pass ending at Time (mirrors
	// kern.Stats.KswapdWakeups).
	TopicKswapdWake
	// TopicMigrateBatch is one migration-engine request that moved
	// Pages pages / Bytes bytes; Dur spans the request ending at Time
	// and Value carries the migrate.Path that issued it.
	TopicMigrateBatch
	// TopicTierTraffic is one op physically moved across memory tiers:
	// Node -> Dst, Bytes bytes; Value is +1 for the demotion direction
	// (toward a slower tier) and -1 for promotion (mirrors
	// migrate.Stats.PagesTierDown / PagesTierUp).
	TopicTierTraffic
	// TopicTenantAdmit is one tenant admitted by the tenancy layer:
	// Task is the tenant id, Pages its fast-tier cap in pages, Value
	// its priority class (tenancy.Class).
	TopicTenantAdmit
	// TopicTenantExit is one tenant departure: Task is the tenant id,
	// Pages the resident pages released at exit (0 when the tenant
	// unmapped everything before exiting).
	TopicTenantExit
	// TopicCapViolation is one allocation that landed on the fast tier
	// beyond the owning tenant's cap because no slow-tier node could
	// absorb the redirect: Task is the tenant id, Node where the page
	// landed. The serve family requires zero of these per cell.
	TopicCapViolation
	// TopicClassLatency is one timed access probe of a tenant: Task is
	// the tenant id, Dur the probe's virtual duration, Pages the probe
	// size in pages, Value the priority class (tenancy.Class).
	TopicClassLatency
	// TopicTenantResident is one tenant residency change applied by the
	// tenancy ledger: Task is the tenant id, Node the node whose count
	// changed, Pages the signed delta, Value the tenant's resulting
	// total resident pages. Published only at instants where mem.Phys
	// gauges are consistent, so differential tests can compare exactly.
	TopicTenantResident

	// NumTopics bounds the topic space.
	NumTopics
)

var topicNames = [NumTopics]string{
	"PageFault", "NumaHintFault", "Promote", "Demote", "RateLimitDrop",
	"KswapdWake", "MigrateBatch", "TierTraffic", "TenantAdmit",
	"TenantExit", "CapViolation", "ClassLatency", "TenantResident",
}

// String returns the topic's registered name.
func (t Topic) String() string {
	if int(t) < len(topicNames) {
		return topicNames[t]
	}
	return "Unknown"
}

// Topics returns every registered topic name, in topic order. The
// docscheck tool uses it to fail CI on topics ARCHITECTURE.md misses.
func Topics() []string {
	out := make([]string, NumTopics)
	copy(out, topicNames[:])
	return out
}

// NoNode marks an Event node field that does not apply (e.g. the mixed
// sources of a promotion batch).
const NoNode = topology.NodeID(-1)

// Event is one occurrence on the bus. One flat struct serves every
// topic — the per-topic field meaning is documented on the Topic
// constants — so publication allocates nothing and the trace exporter
// and log hashers see a uniform shape.
type Event struct {
	// Time is the engine's virtual time at publication; Seq orders
	// events within one instant (resetting to 0 when time advances).
	// (Time, Seq) is strictly increasing over a bus's lifetime.
	Time sim.Time
	Seq  uint32

	Topic Topic
	// Node is the primary node (fault node, demotion/traffic source);
	// Dst the destination where one applies. NoNode where not
	// meaningful.
	Node, Dst topology.NodeID
	// Task is the emitting sim proc's ID (application task or kernel
	// daemon); 0 when emitted outside proc context.
	Task int
	// Pages is the page count of the batch the event describes.
	Pages int
	// Dur, when non-zero, is the span of the activity ending at Time
	// (kswapd reclaim passes, migration batches).
	Dur sim.Time
	// Bytes is the byte volume, where one applies.
	Bytes float64
	// Value is the topic-specific magnitude (see the Topic constants).
	Value float64
}

// Handler consumes events synchronously at publication time. Handlers
// run in simulated-code context and must not block or advance time.
type Handler func(Event)

// Bus is one System's deterministic pub/sub bus. All simulated code of
// a System runs under a single execution token, so the bus needs no
// locking; a Bus must not be shared between Systems or published from
// outside simulated code.
type Bus struct {
	now      func() sim.Time
	lastTime sim.Time
	seq      uint32
	started  bool
	subs     [NumTopics][]Handler
	nsubs    int
}

// NewBus creates a bus stamping events with the given virtual clock
// (typically sim.Engine.Now).
func NewBus(now func() sim.Time) *Bus {
	return &Bus{now: now}
}

// Subscribe registers h for one topic. Delivery order among a topic's
// handlers is subscription order.
func (b *Bus) Subscribe(t Topic, h Handler) {
	b.subs[t] = append(b.subs[t], h)
	b.nsubs++
}

// SubscribeAll registers h for every topic.
func (b *Bus) SubscribeAll(h Handler) {
	for t := Topic(0); t < NumTopics; t++ {
		b.Subscribe(t, h)
	}
}

// Active reports whether any handler listens on t. Hot emitters guard
// event construction with it so the bus-off path costs two branches.
func (b *Bus) Active(t Topic) bool { return len(b.subs[t]) > 0 }

// Publish stamps ev with the current (virtual time, per-instant
// sequence) and delivers it synchronously to t's handlers in
// subscription order. A publish with no subscribers returns
// immediately and consumes no sequence number, so attaching a
// subscriber never perturbs the stamps another subscriber observes.
func (b *Bus) Publish(ev Event) {
	hs := b.subs[ev.Topic]
	if len(hs) == 0 {
		return
	}
	now := b.now()
	if !b.started || now != b.lastTime {
		b.lastTime = now
		b.seq = 0
		b.started = true
	} else {
		b.seq++
	}
	ev.Time = now
	ev.Seq = b.seq
	for _, h := range hs {
		h(ev)
	}
}
