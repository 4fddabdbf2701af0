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
// scenario shuffling them. The hub keeps at most one timer event per
// distinct deadline instead: daemons register on a deadline bucket, a
// single engine callback drains every bucket due at that instant, and
// only daemons with actual work get their (persistent, parked) runner
// proc woken for the tick. Idle polls are side-effect-free engine-context
// calls — no proc, no park/wake — and a drained bucket keeps its idle
// daemons and moves one period on as a unit. They allocate nothing:
// the bucket queue is a window over a reused array, drained buckets
// and their daemon arrays are recycled, and the timer callback is one
// func value. Buckets, not a heap: the common tick re-arms all of a
// bucket's daemons to the same next deadline, which is one bucket move
// here but an O(log n) sift per daemon in a heap (a heap version spent
// ~40% of the 256-node churn point sifting).
//
// Quiet deadlines run inline. After a group tick the callback goes on
// to the next bucket while its deadline lies strictly before the
// engine's next pending event and every daemon in it polls TickIdle
// with one positive period: it moves that bucket one period on in
// place, and schedules one timer only for the first deadline that
// fails the test. This changes no simulated result. Nothing runs
// between the callback and such a deadline, so its polls see the state
// they would see at the deadline and re-arm the same daemons in the
// same order; the timer events they replace would have been ordered
// only against events scheduled after them, and there are none; and
// with no other event pending the hub stops, so an engine with nothing
// else to do ticks exactly as one timer per deadline would. An idle
// period costs no engine event while anything else is pending, and
// since nothing changes during the inline run, each bucket is polled
// at most once per callback however many periods the run spans.
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
	// every tick, so adaptive daemons (the AutoNUMA scanner) work; like
	// Poll, it may be read ahead of the tick's instant.
	Period() sim.Time
	// Poll decides the tick. It runs in engine context: it must decide
	// from readily-available state, must not block or advance time,
	// and must be side-effect-free and not read the clock, whatever it
	// answers. The hub may poll a quiet deadline ahead of its instant
	// to run it inline; an answer other than TickIdle found that way is
	// dropped, and Poll is asked again at the tick.
	Poll() TickVerdict
	// Run performs one busy tick in proc context (may sleep, take
	// simulated locks, issue migrations).
	Run(p *sim.Proc)
}

// hubBucket is every daemon due at one deadline, in push (FIFO) order.
// A fire that has found them all idle with one positive period marks
// the bucket quiet (gen, period) for the rest of that fire.
type hubBucket struct {
	when   sim.Time
	ds     []HubDaemon
	gen    uint64   // the fire that marked the bucket quiet; 0 if none
	period sim.Time // the period its daemons share, while gen is current
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
	// q[lo:] is the bucket queue, sorted ascending by when: a window
	// over a reused backing array, so taking the head shifts nothing.
	// Distinct deadlines stay few (one per distinct period plus the
	// post-work stagger of busy daemons), so the ordered insert is cheap.
	q    []*hubBucket
	lo   int
	free []*hubBucket // drained buckets, ds arrays kept for reuse
	// runners holds the persistent proc of every daemon that has had at
	// least one busy tick; entries leave only on TickRetire.
	runners map[HubDaemon]*hubRunner
	// timerAt is the deadline of the earliest pending engine callback
	// (valid when timerSet). Callbacks for deadlines that were
	// superseded fire spuriously and find nothing due — harmless.
	timerAt  sim.Time
	timerSet bool
	fireFn   func() // h.fire, bound once
	gen      uint64 // counts fires, for the buckets' quiet marks
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

// buckets returns the queued buckets in deadline order.
func (h *DaemonHub) buckets() []*hubBucket { return h.q[h.lo:] }

// push queues d's next poll at when. A deadline at or before now would
// be drained again by the tick that set it, looping inside one engine
// event, so it panics instead.
func (h *DaemonHub) push(when sim.Time, d HubDaemon) {
	if when <= h.eng.Now() {
		panic(fmt.Sprintf("kern: daemon %s has period %v; its next tick must come after now", d.Name(), d.Period()))
	}
	b := h.spare()
	b.ds = append(b.ds, d)
	h.file(b, when)
}

// file queues bucket b's daemons at when: b takes its place in deadline
// order, or, when a bucket is already due then, b's daemons join its
// end, as one push each would, and b goes back to the free list. A
// re-armed deadline is a deadline plus a period, which daemons with one
// period share, so it lands on or after the tail: file compares with
// the tail first, and only an earlier deadline pays a binary search.
func (h *DaemonHub) file(b *hubBucket, when sim.Time) {
	bs := h.buckets()
	i := len(bs)
	if i > 0 && bs[i-1].when >= when {
		if i--; bs[i].when > when {
			i = sort.Search(i, func(j int) bool { return bs[j].when >= when })
		}
		if x := bs[i]; x.when == when {
			x.ds = append(x.ds, b.ds...)
			if x.gen != b.gen || x.period != b.period {
				x.gen = 0
			}
			h.recycle(b)
			return
		}
	}
	b.when = when
	// Make room at the tail: slide the window back to the front of its
	// array once three quarters of the array lie before it, else grow
	// the array, so over time a slide copies at most one bucket pointer
	// per three buckets taken.
	if len(h.q) == cap(h.q) && 4*h.lo >= 3*len(h.q) {
		n := copy(h.q, h.q[h.lo:])
		clear(h.q[n:])
		h.q, h.lo = h.q[:n], 0
	}
	h.q = append(h.q, b)
	if i, tail := h.lo+i, len(h.q)-1; i < tail {
		copy(h.q[i+1:], h.q[i:tail])
		h.q[i] = b
	}
}

// take removes the head bucket from the queue and returns it.
func (h *DaemonHub) take() *hubBucket {
	b := h.q[h.lo]
	h.q[h.lo] = nil
	if h.lo++; h.lo == len(h.q) {
		h.q, h.lo = h.q[:0], 0
	}
	return b
}

// spare returns an empty bucket, recycled when one is free.
func (h *DaemonHub) spare() *hubBucket {
	if n := len(h.free); n > 0 {
		b := h.free[n-1]
		h.free = h.free[:n-1]
		return b
	}
	return &hubBucket{}
}

// recycle empties and unmarks b and puts it on the free list, keeping
// its array.
func (h *DaemonHub) recycle(b *hubBucket) {
	clear(b.ds)
	b.ds, b.gen = b.ds[:0], 0
	h.free = append(h.free, b)
}

// ensureTimer guarantees an engine callback at (or before) the earliest
// deadline of any bucket.
func (h *DaemonHub) ensureTimer() {
	bs := h.buckets()
	if len(bs) == 0 {
		return
	}
	top := bs[0].when
	if h.timerSet && h.timerAt <= top {
		return
	}
	h.timerAt = top
	h.timerSet = true
	h.eng.At(top-h.eng.Now(), h.fireFn)
}

// fire is the group tick: drain every bucket due at this instant in
// deterministic (deadline, push) order, then run quiet deadlines
// inline (see the file comment): while the head bucket's deadline lies
// strictly before the engine's next pending event and its daemons all
// poll TickIdle with one positive period, move it that period on. Only
// then is the next timer scheduled. Nothing in the simulation changes
// during the inline run and polls are pure, so a bucket found quiet
// stays quiet for the rest of the fire: it is marked with the fire's
// gen and moved again without a poll. A bucket that fails the test
// waits for its own timer, where it is polled again; one holding a
// period of zero or less fails it, so its tick's push panics at its
// own instant.
func (h *DaemonHub) fire() {
	h.timerSet = false
	h.gen++
	now := h.eng.Now()
	for h.lo < len(h.q) && h.q[h.lo].when <= now {
		h.tick(h.take(), now)
	}
	if next, ok := h.eng.NextEventTime(); ok {
		for h.lo < len(h.q) {
			b := h.q[h.lo]
			if b.when >= next {
				break
			}
			if b.gen != h.gen {
				p, ok := quiet(b.ds)
				if !ok {
					break
				}
				b.gen, b.period = h.gen, p
			}
			h.take()
			h.file(b, b.when+b.period)
		}
	}
	h.ensureTimer()
}

// tick polls bucket b's daemons at now, in order: a busy daemon's runner
// is woken, a retiring one dropped, and the idle ones stay in b. When
// they share one positive period, b moves that period on as a unit,
// marked quiet: if the fire goes on to run deadlines inline, the tick
// scheduled no event and so changed nothing they poll. Otherwise each
// is pushed on its own, and push rejects a period of zero or less.
func (h *DaemonHub) tick(b *hubBucket, now sim.Time) {
	idle := b.ds[:0]
	for _, d := range b.ds {
		switch d.Poll() {
		case TickRetire:
			if r := h.runners[d]; r != nil {
				r.quit = true
				r.gate.Fire() // unpark the runner so it can exit
				delete(h.runners, d)
			}
		case TickIdle:
			idle = append(idle, d)
		case TickRun:
			h.signal(d)
		}
	}
	clear(b.ds[len(idle):])
	b.ds = idle
	if p, ok := samePeriod(idle); ok {
		b.gen, b.period = h.gen, p
		h.file(b, now+p)
		return
	}
	for _, d := range idle {
		h.push(now+d.Period(), d)
	}
	h.recycle(b)
}

// quiet reports whether a tick of ds would only re-arm them: every
// daemon polls TickIdle and all share one positive period p.
func quiet(ds []HubDaemon) (p sim.Time, ok bool) {
	for _, d := range ds {
		if d.Poll() != TickIdle {
			return 0, false
		}
	}
	return samePeriod(ds)
}

// samePeriod returns the period ds share, and whether there is one and
// it is positive.
func samePeriod(ds []HubDaemon) (p sim.Time, ok bool) {
	if len(ds) == 0 {
		return 0, false
	}
	p = ds[0].Period()
	for _, d := range ds[1:] {
		if d.Period() != p {
			return 0, false
		}
	}
	return p, p > 0
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
