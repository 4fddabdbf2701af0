package sim

// Resource is a counting resource (capacity >= 1) with FIFO queueing.
// Capacity 1 gives a mutex. Waiting time is charged to the waiter's
// current accounting category and recorded in the contention stats.
type Resource struct {
	eng   *Engine
	name  string
	cap   int
	inUse int
	queue []resWaiter
	// Stats.
	Contended uint64
	WaitTime  Time
}

type resWaiter struct {
	p   *Proc
	enq Time
	pri int
}

// NewResource creates a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, cap: capacity}
}

// Acquire obtains one unit, blocking in FIFO order if none is free.
func (r *Resource) Acquire(p *Proc) { r.AcquirePri(p, 0) }

// AcquirePri obtains one unit like Acquire, but a contended waiter
// enqueues ahead of every waiter with a strictly lower priority (FIFO
// among equals). Priority 0 is exactly Acquire, so existing callers
// keep their queue order bit for bit; higher values let
// latency-sensitive requests overtake batch work already queued on the
// resource. The holder is never preempted — priority only reorders the
// wait queue.
func (r *Resource) AcquirePri(p *Proc, pri int) {
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.Contended++
	w := resWaiter{p: p, enq: r.eng.now, pri: pri}
	at := len(r.queue)
	for at > 0 && r.queue[at-1].pri < pri {
		at--
	}
	r.queue = append(r.queue, resWaiter{})
	copy(r.queue[at+1:], r.queue[at:])
	r.queue[at] = w
	p.park()
	// When resumed, the releaser has transferred the unit to us.
}

// TryAcquire obtains a unit without blocking; reports whether it succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap && len(r.queue) == 0 {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit; the longest waiter (if any) receives it.
// May be called from proc or engine-callback context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.queue) > 0 {
		w := r.queue[0]
		r.queue = r.queue[1:]
		wait := r.eng.now - w.enq
		r.WaitTime += wait
		w.p.charge(wait)
		w.p.wake() // unit stays accounted in inUse, ownership transfers
		return
	}
	r.inUse--
}

// With runs fn while holding the resource.
func (r *Resource) With(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}

// RWLock is a writer-preferring reader/writer lock with FIFO fairness
// between waiter classes, modelled after the kernel's mmap_sem.
type RWLock struct {
	eng     *Engine
	name    string
	readers int
	writer  bool
	queue   []rwWaiter
}

type rwWaiter struct {
	p     *Proc
	write bool
	enq   Time
}

// NewRWLock creates a reader/writer lock.
func NewRWLock(e *Engine, name string) *RWLock {
	return &RWLock{eng: e, name: name}
}

// RLock acquires the lock shared.
func (l *RWLock) RLock(p *Proc) {
	if !l.writer && len(l.queue) == 0 {
		l.readers++
		return
	}
	l.queue = append(l.queue, rwWaiter{p: p, write: false, enq: l.eng.now})
	p.park()
}

// RUnlock releases a shared hold.
func (l *RWLock) RUnlock() {
	if l.readers <= 0 {
		panic("sim: runlock of rwlock " + l.name + " with no readers")
	}
	l.readers--
	l.dispatch()
}

// Lock acquires the lock exclusive.
func (l *RWLock) Lock(p *Proc) {
	if !l.writer && l.readers == 0 && len(l.queue) == 0 {
		l.writer = true
		return
	}
	l.queue = append(l.queue, rwWaiter{p: p, write: true, enq: l.eng.now})
	p.park()
}

// Unlock releases an exclusive hold.
func (l *RWLock) Unlock() {
	if !l.writer {
		panic("sim: unlock of rwlock " + l.name + " not held exclusive")
	}
	l.writer = false
	l.dispatch()
}

func (l *RWLock) dispatch() {
	for len(l.queue) > 0 {
		w := l.queue[0]
		if w.write {
			if l.writer || l.readers > 0 {
				return
			}
			l.writer = true
			l.queue = l.queue[1:]
			l.grant(w)
			return
		}
		if l.writer {
			return
		}
		l.readers++
		l.queue = l.queue[1:]
		l.grant(w)
	}
}

func (l *RWLock) grant(w rwWaiter) {
	w.p.charge(l.eng.now - w.enq)
	w.p.wake()
}

// Event is a one-shot condition: processes Wait until someone Fires it.
// Waiting after the fire returns immediately.
type Event struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unfired event.
func NewEvent(e *Engine) *Event { return &Event{eng: e} }

// Wait blocks until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, p)
	p.park()
}

// Fire releases all current and future waiters. Idempotent. Callable from
// proc or engine-callback context.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, p := range ev.waiters {
		p.wake()
	}
	ev.waiters = nil
}

// WaitGroup counts outstanding work items; Wait blocks until the count
// reaches zero.
type WaitGroup struct {
	eng *Engine
	n   int
	ev  *Event
}

// NewWaitGroup creates a wait group with an initial count.
func NewWaitGroup(e *Engine, n int) *WaitGroup {
	wg := &WaitGroup{eng: e, n: n, ev: NewEvent(e)}
	if n == 0 {
		wg.ev.Fire()
	}
	return wg
}

// Add increments the count by k (k may be negative via Done).
func (wg *WaitGroup) Add(k int) {
	wg.n += k
	if wg.n < 0 {
		panic("sim: negative waitgroup count")
	}
	if wg.n == 0 {
		wg.ev.Fire()
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the count reaches zero.
func (wg *WaitGroup) Wait(p *Proc) { wg.ev.Wait(p) }
