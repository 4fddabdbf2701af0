package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// event is a scheduled occurrence: either waking a process or running a
// callback in engine context (callbacks must not block).
type event struct {
	p  *Proc
	fn func()
}

// bucket holds every event scheduled for one instant, in scheduling
// (FIFO) order. Coalescing simultaneous events into one heap node keeps
// the heap small when many daemons share a wake period, and the FIFO
// drain preserves the (time, schedule-sequence) order the previous
// binary-heap implementation guaranteed: within a bucket, append order
// is exactly sequence order, and across buckets times strictly increase.
type bucket struct {
	t  Time
	ev []event
	i  int // next event to drain
}

// Engine is a deterministic discrete-event simulator. All processes run in
// goroutines, but a single execution token guarantees that exactly one of
// them (or the engine itself) executes at any instant, so simulated code
// needs no synchronization and runs are reproducible.
//
// The event queue is a hand-rolled min-heap of time buckets: one bucket
// per distinct timestamp, events appended in scheduling order. Scheduling
// an event at an already-pending instant is an O(1) append (no heap
// sift), drained buckets are recycled through a free list, and no
// interface boxing occurs on the hot path.
type Engine struct {
	now     Time
	buckets map[Time]*bucket
	heap    []*bucket // min-heap on t; excludes cur
	cur     *bucket   // bucket currently draining (earliest time)
	npend   int       // events not yet drained
	freeb   []*bucket

	yield    chan struct{}
	live     map[*Proc]struct{}
	nextID   int
	failure  error
	nsteps   uint64
	MaxSteps uint64 // optional runaway guard; 0 = unlimited

	// Rand is a deterministic source shared by all simulated code.
	Rand *rand.Rand
}

// NewEngine returns an engine with the given deterministic seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		buckets: make(map[Time]*bucket, 64),
		heap:    make([]*bucket, 0, 64),
		yield:   make(chan struct{}),
		live:    make(map[*Proc]struct{}),
		Rand:    rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if t < e.now {
		t = e.now
	}
	// Wakes, yields, event fires and lock grants land on the instant
	// being drained, whose bucket is cur: skip the index lookup.
	b := e.cur
	if b == nil || b.t != t {
		b = e.buckets[t]
		if b == nil {
			b = e.getBucket(t)
			e.buckets[t] = b
			e.pushBucket(b)
		}
	}
	b.ev = append(b.ev, event{p: p, fn: fn})
	e.npend++
}

// getBucket takes a bucket from the free list (retaining its event
// backing array) or allocates one.
func (e *Engine) getBucket(t Time) *bucket {
	if n := len(e.freeb); n > 0 {
		b := e.freeb[n-1]
		e.freeb[n-1] = nil
		e.freeb = e.freeb[:n-1]
		b.t = t
		b.i = 0
		b.ev = b.ev[:0]
		return b
	}
	return &bucket{t: t, ev: make([]event, 0, 8)}
}

func (e *Engine) putBucket(b *bucket) {
	if len(e.freeb) < 64 {
		e.freeb = append(e.freeb, b)
	}
}

// pushBucket inserts b into the time min-heap. Bucket times are
// distinct (one bucket per instant), so no tie-break is needed.
func (e *Engine) pushBucket(b *bucket) {
	h := append(e.heap, b)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	e.heap = h
}

// popBucket removes and returns the earliest bucket.
func (e *Engine) popBucket() *bucket {
	h := e.heap
	b := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l].t < h[s].t {
			s = l
		}
		if r < n && h[r].t < h[s].t {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return b
}

// next returns the earliest pending event. The draining bucket stays in
// the timestamp index until empty, so an event scheduled at the current
// instant (by the event being processed) lands in the same bucket and
// fires this instant, after everything already queued — exactly the
// sequence-number order of the previous implementation.
func (e *Engine) next() (event, bool) {
	for {
		if e.cur == nil {
			if len(e.heap) == 0 {
				return event{}, false
			}
			e.cur = e.popBucket()
		}
		b := e.cur
		if b.i < len(b.ev) {
			ev := b.ev[b.i]
			b.ev[b.i] = event{}
			b.i++
			e.npend--
			return ev, true
		}
		delete(e.buckets, b.t)
		e.putBucket(b)
		e.cur = nil
	}
}

// dispatch outcomes: who got the execution token.
const (
	dispatchSelf    = iota // the yielding proc's own wake was next: it continues
	dispatchHanded         // another proc was resumed directly
	dispatchDrained        // queue empty, guard tripped, or failure set
)

// dispatch advances the simulation in the calling goroutine — whichever
// one holds the execution token. self is the yielding proc (nil when the
// Run loop dispatches). Engine callbacks run inline; the loop stops at
// the first proc wake-up. When that wake-up is self's own, the caller
// simply continues — the common consecutive-sleep case costs no channel
// operations and no goroutine switch; otherwise the token passes
// directly proc-to-proc without bouncing through the engine goroutine.
// Event order comes solely from next(), so which goroutine dispatches
// never affects the schedule.
func (e *Engine) dispatch(self *Proc) int {
	for e.failure == nil {
		if e.MaxSteps > 0 && e.nsteps >= e.MaxSteps {
			return dispatchDrained
		}
		ev, ok := e.next()
		if !ok {
			return dispatchDrained
		}
		e.nsteps++
		e.now = e.cur.t
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.p == self {
			return dispatchSelf
		}
		ev.p.resume <- struct{}{}
		return dispatchHanded
	}
	return dispatchDrained
}

// At schedules fn to run in engine context after delay d. fn must not
// block; it may fire events, release resources and schedule further work.
func (e *Engine) At(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, fn)
}

// Spawn creates a new process running fn and schedules it to start at the
// current time. It may be called before Run or from inside a running
// process.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	e.nextID++
	p := &Proc{
		eng:    e,
		id:     e.nextID,
		name:   name,
		resume: make(chan struct{}),
	}
	e.live[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil && e.failure == nil {
				e.failure = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
			}
			delete(e.live, p)
			p.done = true
			e.yield <- struct{}{}
		}()
		fn(p)
	}()
	e.schedule(e.now, p, nil)
	return p
}

// Run executes events until the queue drains. It returns an error if a
// process panicked, if the step guard tripped, or if processes remain
// blocked with no pending events (deadlock). The loop only sees the
// token when no proc can continue: once handed to a proc, the token
// wanders proc-to-proc through dispatch until the queue drains, a guard
// trips, or a proc finishes.
func (e *Engine) Run() error {
	for e.failure == nil && e.npend > 0 {
		if e.MaxSteps > 0 && e.nsteps >= e.MaxSteps {
			return fmt.Errorf("sim: exceeded %d steps at t=%v", e.MaxSteps, e.now)
		}
		if e.dispatch(nil) == dispatchHanded {
			<-e.yield
		}
	}
	if e.failure != nil {
		return e.failure
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return fmt.Errorf("sim: deadlock at t=%v: %d blocked procs %v", e.now, len(names), names)
	}
	return nil
}

// MustRun runs the simulation and panics on error. Intended for examples
// and benchmarks where an engine error is a programming bug.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}
