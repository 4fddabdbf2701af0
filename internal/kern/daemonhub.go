package kern

import (
	"fmt"
	"sort"

	"numamig/internal/sim"
)

// The daemon hub batches periodic kernel-thread ticks. Without it,
// every kswapd and AutoNUMA scanner is a parked proc with its own wake
// event — on a 1024-node machine that is a thousand queue entries per
// period even when every node is idle, and the event queue spends the
// scenario shuffling them. The hub keeps one timer event per distinct
// deadline instead: daemons register on a deadline bucket, a single
// engine callback drains every bucket due at that instant, and only
// daemons with actual work get their (persistent, parked) runner proc
// woken for the tick. Idle polls
// are side-effect-free engine-context calls — no proc, no park/wake —
// and cost one engine event per distinct deadline. They allocate
// nothing: drained buckets and their daemon arrays are recycled, and
// the timer callback is one func value. Buckets, not a heap: the
// common tick re-arms all of a bucket's daemons to the same next
// deadline, which is an O(1) append per daemon here but an O(log n)
// sift each in a heap (a heap version spent ~40% of the 256-node
// churn point sifting).
//
// Determinism: buckets are kept sorted by deadline and drained FIFO,
// so daemons tick in (deadline, registration) order — both
// simulation-deterministic — and waking a runner (sim.Event.Fire)
// enqueues FIFO at the current instant. Telemetry (time, seq) stamps
// are therefore identical at any -parallel level, like the per-daemon
// procs they replace.

// TickVerdict is a daemon's answer to a hub poll.
type TickVerdict int

// Tick verdicts.
const (
	// TickRetire unregisters the daemon; it is never polled again.
	TickRetire TickVerdict = iota
	// TickIdle skips this period without spawning a proc; the daemon is
	// re-polled one period later.
	TickIdle
	// TickRun wakes the daemon's runner proc for Run; the next poll is
	// scheduled one period after Run completes (daemons stagger after
	// doing work, like a kernel thread that re-sleeps from where it
	// finished).
	TickRun
)

// HubDaemon is a periodic kernel thread driven by the hub.
type HubDaemon interface {
	// Name labels the proc spawned for busy ticks.
	Name() string
	// Period returns the current tick interval. It is re-read after
	// every tick, so adaptive daemons (the AutoNUMA scanner) work.
	Period() sim.Time
	// Poll decides the tick. It runs in engine context: it must decide
	// from readily-available state and must not block or advance time.
	Poll() TickVerdict
	// Run performs one busy tick in proc context (may sleep, take
	// simulated locks, issue migrations).
	Run(p *sim.Proc)
}

// hubBucket is every daemon due at one deadline, in push (FIFO) order.
type hubBucket struct {
	when sim.Time
	ds   []HubDaemon
}

// hubRunner is the persistent proc behind a daemon's busy ticks. Spawning
// a fresh proc per tick would cost a goroutine create plus two channel
// handoffs every period; always-busy daemons (the AutoNUMA scanner) made
// that visible in the family benchmarks. Instead the first TickRun spawns
// one long-lived proc that parks on gate between ticks — waking it is a
// direct token handoff, the same price the pre-hub per-daemon procs paid.
type hubRunner struct {
	d    HubDaemon
	gate *sim.Event // fired by the hub when a busy tick is due
	quit bool       // set (then gate fired) when the daemon retires
}

// DaemonHub coalesces periodic daemon ticks into per-deadline group
// events on the DES engine.
type DaemonHub struct {
	eng *sim.Engine
	// buckets is sorted ascending by when. Distinct deadlines stay few
	// (one per distinct period plus the post-work stagger of busy
	// daemons), so the ordered insert is cheap.
	buckets []*hubBucket
	free    []*hubBucket // drained buckets, ds arrays kept for reuse
	n       int          // registered (non-retired) daemons
	// runners holds the persistent proc of every daemon that has had at
	// least one busy tick; entries leave only on TickRetire.
	runners map[HubDaemon]*hubRunner
	// timerAt is the deadline of the earliest pending engine callback
	// (valid when timerSet). Callbacks for deadlines that were
	// superseded fire spuriously and find nothing due — harmless.
	timerAt  sim.Time
	timerSet bool
	fireFn   func() // h.fire, bound once
}

// NewDaemonHub creates an empty hub on eng.
func NewDaemonHub(eng *sim.Engine) *DaemonHub {
	h := &DaemonHub{eng: eng, runners: map[HubDaemon]*hubRunner{}}
	h.fireFn = h.fire
	return h
}

// Register schedules d's first poll one period from now. Safe from both
// engine and proc context.
func (h *DaemonHub) Register(d HubDaemon) {
	h.push(h.eng.Now()+d.Period(), d)
	h.ensureTimer()
}

// Len returns the number of registered (non-retired) daemons.
func (h *DaemonHub) Len() int { return h.n }

// push queues d's next poll at when. A deadline at or before now would
// be drained again by the tick that set it, looping inside one engine
// event, so it panics instead. A re-armed deadline is now plus a
// period, which daemons with one period share, so it lands on or after
// the tail: push compares with the tail first, and only an earlier
// deadline pays a binary search.
func (h *DaemonHub) push(when sim.Time, d HubDaemon) {
	if when <= h.eng.Now() {
		panic(fmt.Sprintf("kern: daemon %s has period %v; its next tick must come after now", d.Name(), d.Period()))
	}
	h.n++
	i := len(h.buckets)
	if i > 0 && h.buckets[i-1].when >= when {
		if i--; h.buckets[i].when > when {
			i = sort.Search(i, func(j int) bool { return h.buckets[j].when >= when })
		}
		if h.buckets[i].when == when {
			h.buckets[i].ds = append(h.buckets[i].ds, d)
			return
		}
	}
	var b *hubBucket
	if n := len(h.free); n > 0 {
		b = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		b = &hubBucket{}
	}
	b.when = when
	b.ds = append(b.ds, d)
	h.buckets = append(h.buckets, nil)
	copy(h.buckets[i+1:], h.buckets[i:])
	h.buckets[i] = b
}

// ensureTimer guarantees an engine callback at (or before) the earliest
// deadline of any bucket.
func (h *DaemonHub) ensureTimer() {
	if len(h.buckets) == 0 {
		return
	}
	top := h.buckets[0].when
	if h.timerSet && h.timerAt <= top {
		return
	}
	h.timerAt = top
	h.timerSet = true
	h.eng.At(top-h.eng.Now(), h.fireFn)
}

// fire is the group tick: drain every bucket due at this instant in
// deterministic (deadline, push) order, re-arm the idle daemons, spawn
// procs for the busy ones, drop the retired ones.
func (h *DaemonHub) fire() {
	h.timerSet = false
	now := h.eng.Now()
	for len(h.buckets) > 0 && h.buckets[0].when <= now {
		b := h.buckets[0]
		h.buckets = h.buckets[:copy(h.buckets, h.buckets[1:])]
		for _, d := range b.ds {
			h.n--
			switch d.Poll() {
			case TickRetire:
				if r := h.runners[d]; r != nil {
					r.quit = true
					r.gate.Fire() // unpark the runner so it can exit
					delete(h.runners, d)
				}
			case TickIdle:
				h.push(now+d.Period(), d)
			case TickRun:
				h.signal(d)
			}
		}
		clear(b.ds)
		b.ds = b.ds[:0]
		h.free = append(h.free, b)
	}
	h.ensureTimer()
}

// signal wakes d's persistent runner for one busy tick, spawning it on
// the first. Fire enqueues the wake at the current instant FIFO — the
// same position a per-tick Spawn would take — so the tick schedule is
// unchanged.
func (h *DaemonHub) signal(d HubDaemon) {
	r := h.runners[d]
	if r == nil {
		r = &hubRunner{d: d, gate: sim.NewEvent(h.eng)}
		h.runners[d] = r
		h.eng.Spawn(d.Name(), func(p *sim.Proc) { h.runLoop(p, r) })
	}
	r.gate.Fire()
}

// runLoop is a runner proc's body: park on the gate, run one tick,
// re-arm the daemon one period after the work finished, park again.
// The daemon re-enters the buckets only after Run returns, so the hub
// cannot signal r while Run is executing — replacing the one-shot gate
// before Run is therefore race-free.
func (h *DaemonHub) runLoop(p *sim.Proc, r *hubRunner) {
	for {
		r.gate.Wait(p)
		if r.quit {
			return
		}
		r.gate = sim.NewEvent(h.eng)
		r.d.Run(p)
		h.push(p.Now()+r.d.Period(), r.d)
		h.ensureTimer()
	}
}
