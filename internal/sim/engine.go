package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
)

// event is a scheduled occurrence: either waking a process or running a
// callback in engine context (callbacks must not block). seq orders the
// heap's events for one instant; only heap events carry one.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

// before orders heap events by (time, schedule sequence).
func (a *event) before(b *event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. All processes run in
// goroutines, but a single execution token guarantees that exactly one of
// them (or the engine itself) executes at any instant, so simulated code
// needs no synchronization and runs are reproducible.
//
// Events drain in (time, schedule-sequence) order from two value queues.
// An event for a later instant goes on a min-heap keyed by (time, seq).
// An event for the current instant (wakes, yields, event fires and lock
// grants, and any past time, which clamps to now) is appended to a FIFO
// with no sift and no sequence number. Every heap event for now was
// scheduled before the clock reached now, so it precedes the whole FIFO:
// next pops those first, then drains the FIFO, and only then advances
// the clock to the heap minimum. Neither queue allocates once its
// backing array has grown, and no interface boxing occurs on the hot
// path.
type Engine struct {
	now  Time
	heap []event // events after now, min-heap on (t, seq)
	fifo []event // events at now, in schedule order
	head int     // next fifo event to drain
	seq  uint64  // sequence of the last heap push

	yield    chan struct{}
	live     map[*Proc]struct{}
	nextID   int
	failure  error
	stopping bool // Run failed: every resumed proc exits
	nsteps   uint64
	MaxSteps uint64 // optional runaway guard; 0 = unlimited

	// Rand is a deterministic source shared by all simulated code.
	Rand *rand.Rand
}

// NewEngine returns an engine with the given deterministic seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		heap:  make([]event, 0, 64),
		fifo:  make([]event, 0, 64),
		yield: make(chan struct{}),
		live:  make(map[*Proc]struct{}),
		Rand:  rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

func (e *Engine) schedule(t Time, p *Proc, fn func()) {
	if t <= e.now {
		e.fifo = append(e.fifo, event{p: p, fn: fn})
		return
	}
	e.seq++
	h := append(e.heap, event{t: t, seq: e.seq, p: p, fn: fn})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	e.heap = h
}

// pop removes and returns the heap's earliest event.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// next returns the earliest pending event, advancing the clock when the
// current instant is exhausted.
func (e *Engine) next() (event, bool) {
	if len(e.heap) > 0 && e.heap[0].t == e.now {
		return e.pop(), true
	}
	if e.head < len(e.fifo) {
		ev := e.fifo[e.head]
		e.fifo[e.head] = event{}
		if e.head++; e.head == len(e.fifo) {
			e.fifo, e.head = e.fifo[:0], 0
		}
		return ev, true
	}
	if len(e.heap) == 0 {
		return event{}, false
	}
	ev := e.pop()
	e.now = ev.t
	return ev, true
}

func (e *Engine) pending() bool { return e.head < len(e.fifo) || len(e.heap) > 0 }

// NextEventTime returns the time of the earliest pending event: now
// while the current instant still holds events to drain, else the
// heap's minimum. ok is false when no event is pending. It reads the
// queues and changes nothing.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	if e.head < len(e.fifo) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].t, true
	}
	return 0, false
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
		if ev.fn != nil {
			e.call(ev.fn)
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

// call runs an engine callback. A panic in it fails the run with an
// error naming the callback and the time, whichever goroutine holds
// the token: dispatch then stops, and Run unwinds as for any other
// failure.
func (e *Engine) call(fn func()) {
	defer func() {
		if r := recover(); r != nil && e.failure == nil {
			name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
			e.failure = fmt.Errorf("sim: callback %s panicked at t=%v: %v", name, e.now, r)
		}
	}()
	fn()
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
			if r := recover(); r != nil && e.failure == nil && !e.stopping {
				e.failure = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
			}
			delete(e.live, p)
			e.yield <- struct{}{}
		}()
		if !e.stopping {
			fn(p)
		}
	}()
	e.schedule(e.now, p, nil)
	return p
}

// Run executes events until the queue drains. It returns an error if a
// process panicked, if the step guard tripped, or if processes remain
// blocked with no pending events (deadlock). The loop only sees the
// token when no proc can continue: once handed to a proc, the token
// wanders proc-to-proc through dispatch until the queue drains, a guard
// trips, or a proc finishes. A failed Run stops every unfinished proc
// before it returns.
func (e *Engine) Run() error {
	for e.failure == nil && e.pending() {
		if e.MaxSteps > 0 && e.nsteps >= e.MaxSteps {
			return e.unwind(fmt.Errorf("sim: exceeded %d steps at t=%v", e.MaxSteps, e.now))
		}
		if e.dispatch(nil) == dispatchHanded {
			<-e.yield
		}
	}
	if e.failure != nil {
		return e.unwind(e.failure)
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return e.unwind(fmt.Errorf("sim: deadlock at t=%v: %d blocked procs %v", e.now, len(names), names))
	}
	return nil
}

// unwind ends every unfinished proc, in spawn order, and returns err.
// Each is resumed once with stopping set, exits through runtime.Goexit
// in park (or skips its body if it never started), runs its deferred
// calls, and hands the token back. Procs spawned by those deferred
// calls are ended too, so no goroutine outlives a failed Run.
func (e *Engine) unwind(err error) error {
	e.stopping = true
	for len(e.live) > 0 {
		ps := make([]*Proc, 0, len(e.live))
		for p := range e.live {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
		for _, p := range ps {
			p.resume <- struct{}{}
			<-e.yield
		}
	}
	return err
}

// exitIfStopping ends the calling proc's goroutine once Run has failed.
func (e *Engine) exitIfStopping() {
	if e.stopping {
		runtime.Goexit()
	}
}

// MustRun runs the simulation and panics on error. Intended for examples
// and benchmarks where an engine error is a programming bug.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}
