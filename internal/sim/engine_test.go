package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var end Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(10 * Microsecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*Microsecond {
		t.Fatalf("end = %v, want 15us", end)
	}
}

func TestEventOrderingFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestTimerOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(3*Microsecond, func() { order = append(order, "c") })
	e.At(1*Microsecond, func() { order = append(order, "a") })
	e.At(2*Microsecond, func() { order = append(order, "b") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine(1)
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		p.Spawn("child", func(c *Proc) {
			c.Sleep(2 * Microsecond)
			childTime = c.Now()
		})
		p.Sleep(100 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 9*Microsecond {
		t.Fatalf("child end = %v, want 9us", childTime)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	e.Spawn("stuck", func(p *Proc) {
		ev.Wait(p) // never fired
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error should name the proc: %v", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bad", func(p *Proc) {
		panic("boom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

func TestMaxStepsGuard(t *testing.T) {
	e := NewEngine(1)
	e.MaxSteps = 100
	e.Spawn("spin", func(p *Proc) {
		for {
			p.Sleep(Nanosecond)
		}
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("err = %v, want step guard", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() string {
		e := NewEngine(42)
		var sb strings.Builder
		r := NewResource(e, "r", 2)
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(Time(e.Rand.Intn(100)) * Nanosecond)
				r.Acquire(p)
				fmt.Fprintf(&sb, "%d@%d;", i, p.Now())
				p.Sleep(50 * Nanosecond)
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("nondeterministic runs:\n%s\n%s", a, b)
	}
}

func TestYield(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a1,b1,a2" {
		t.Fatalf("order = %q, want a1,b1,a2", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{15 * Microsecond, "15.00us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.00ms" /* placeholder replaced below */},
	}
	cases[3].want = "2000.00ms"
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if Micros(2.5) != 2500*Nanosecond {
		t.Errorf("Micros(2.5) = %v", Micros(2.5))
	}
}

// TestFailedRunEndsEveryProc: a Run that fails ends the goroutine of
// every unfinished proc before it returns, in each way Run can fail —
// a deadlock, the step guard, and a panic while two procs wait on a
// Resource. In each mode the proc holding the resource defers a
// Release and a Sleep (a park during the unwind), and both must run;
// under the step guard and the panic a spawned proc never starts.
// After 20 rounds of each the goroutine count must be back where it
// began.
func TestFailedRunEndsEveryProc(t *testing.T) {
	type counts struct{ released, slept int }
	// holder takes r, then parks until the run fails.
	holder := func(e *Engine, r *Resource, c *counts) {
		e.Spawn("holder", func(p *Proc) {
			r.Acquire(p)
			defer func() { r.Release(); c.released++ }()
			defer func() { c.slept++; p.Sleep(Microsecond) }()
			NewEvent(e).Wait(p)
		})
		for i := 0; i < 2; i++ {
			e.Spawn("waiter", func(p *Proc) { r.With(p, func() {}) })
		}
	}
	modes := []struct {
		name, want string
		build      func(e *Engine, c *counts)
	}{
		{"deadlock", "deadlock", func(e *Engine, c *counts) {
			holder(e, NewResource(e, "r", 1), c)
		}},
		{"step guard", "steps", func(e *Engine, c *counts) {
			holder(e, NewResource(e, "r", 1), c)
			e.Spawn("spin", func(p *Proc) {
				for i := 0; ; i++ {
					if i == 30 {
						// The guard trips before the child's start.
						p.Spawn("never started", func(*Proc) { panic("started") })
						e.MaxSteps = e.Steps()
					}
					p.Sleep(Nanosecond)
				}
			})
		}},
		{"panic", "boom", func(e *Engine, c *counts) {
			holder(e, NewResource(e, "r", 1), c)
			e.Spawn("bad", func(p *Proc) {
				p.Sleep(Microsecond)
				p.Spawn("never started", func(*Proc) { panic("started") })
				panic("boom")
			})
		}},
	}
	base := runtime.NumGoroutine()
	for _, m := range modes {
		for round := 0; round < 20; round++ {
			e := NewEngine(1)
			var c counts
			m.build(e, &c)
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), m.want) {
				t.Fatalf("%s: err = %v, want %q", m.name, err, m.want)
			}
			if c.released != 1 || c.slept != 1 {
				t.Fatalf("%s: holder's deferred calls ran %d (Release) and %d (Sleep) times, want 1 each", m.name, c.released, c.slept)
			}
			if len(e.live) != 0 {
				t.Fatalf("%s: %d procs still live after Run", m.name, len(e.live))
			}
		}
	}
	// A finished goroutine may not have left the scheduler yet when Run
	// returns; wait for the count, not for a fixed time.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after %d failed runs, %d before them",
				runtime.NumGoroutine(), 20*len(modes), base)
		}
		runtime.Gosched()
	}
}

// TestCallbackPanicFailsRun: a panicking engine callback fails the run
// with an error naming the callback, whichever goroutine dispatched it,
// and Run ends every unfinished proc. In one shape the callback runs
// while a proc that did nothing wrong holds the token; in the other the
// Run loop dispatches it, with one proc parked on an event that never
// fires. After 20 rounds of each the goroutine count must be back where
// it began.
func TestCallbackPanicFailsRun(t *testing.T) {
	shapes := []struct {
		name  string
		build func(e *Engine)
	}{
		{"proc holds the token", func(e *Engine) {
			e.Spawn("innocent", func(p *Proc) { p.Sleep(5) })
		}},
		{"run loop holds the token", func(e *Engine) {
			e.Spawn("parked", func(p *Proc) { NewEvent(e).Wait(p) })
			e.Spawn("done", func(p *Proc) { p.Sleep(1) })
		}},
	}
	base := runtime.NumGoroutine()
	for _, s := range shapes {
		for round := 0; round < 20; round++ {
			e := NewEngine(1)
			e.At(3, func() { panic("callback bug") })
			s.build(e)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: the callback's panic escaped Run: %v", s.name, r)
					}
				}()
				err = e.Run()
			}()
			if err == nil || !strings.Contains(err.Error(), "callback") ||
				!strings.Contains(err.Error(), "callback bug") || !strings.Contains(err.Error(), "t=3ns") {
				t.Fatalf("%s: err = %v, want the callback, its panic and t=3ns named", s.name, err)
			}
			if strings.Contains(err.Error(), `proc "`) {
				t.Fatalf("%s: err = %v blames a proc", s.name, err)
			}
			if len(e.live) != 0 {
				t.Fatalf("%s: %d procs still live after Run", s.name, len(e.live))
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after %d failed runs, %d before them",
				runtime.NumGoroutine(), 20*len(shapes), base)
		}
		runtime.Gosched()
	}
}

// refBucketQueue is the engine's previous event queue, kept as the
// reference the (time, seq) heap and same-instant FIFO are checked
// against: a timestamp-indexed min-heap of per-instant buckets, each
// drained FIFO, with drained buckets recycled through a free list. An
// event is its id; next sets now, as the engine's dispatch did.
type refBucketQueue struct {
	now     Time
	buckets map[Time]*refBucket
	heap    []*refBucket // min-heap on t; excludes cur
	cur     *refBucket   // bucket currently draining (earliest time)
	freeb   []*refBucket
}

type refBucket struct {
	t  Time
	ev []int
	i  int // next event to drain
}

func newRefBucketQueue() *refBucketQueue {
	return &refBucketQueue{buckets: make(map[Time]*refBucket)}
}

func (q *refBucketQueue) schedule(t Time, id int) {
	if t < q.now {
		t = q.now
	}
	b := q.cur
	if b == nil || b.t != t {
		b = q.buckets[t]
		if b == nil {
			b = q.getBucket(t)
			q.buckets[t] = b
			q.pushBucket(b)
		}
	}
	b.ev = append(b.ev, id)
}

func (q *refBucketQueue) getBucket(t Time) *refBucket {
	if n := len(q.freeb); n > 0 {
		b := q.freeb[n-1]
		q.freeb = q.freeb[:n-1]
		b.t, b.i, b.ev = t, 0, b.ev[:0]
		return b
	}
	return &refBucket{t: t}
}

func (q *refBucketQueue) putBucket(b *refBucket) {
	if len(q.freeb) < 64 {
		q.freeb = append(q.freeb, b)
	}
}

func (q *refBucketQueue) pushBucket(b *refBucket) {
	q.heap = append(q.heap, b)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (q *refBucketQueue) popBucket() *refBucket {
	h := q.heap
	b := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.heap = h
	for i := 0; ; {
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

// next returns the earliest pending event. The draining bucket stays
// in the index until empty, so an event scheduled at the current
// instant joins it and drains after everything already queued there.
func (q *refBucketQueue) next() (int, bool) {
	for {
		if q.cur == nil {
			if len(q.heap) == 0 {
				return 0, false
			}
			q.cur = q.popBucket()
		}
		b := q.cur
		if b.i < len(b.ev) {
			id := b.ev[b.i]
			b.i++
			q.now = b.t
			return id, true
		}
		delete(q.buckets, b.t)
		q.putBucket(b)
		q.cur = nil
	}
}

// runQueueOps drives the engine's queue and the reference with one op
// stream and fails at the first drained event on which they differ,
// by id or by the clock. Each op is two bytes, a code and an argument:
// schedule in the past (clamped to now), at now (mid-drain when the
// instant is draining), in the near future (often an instant already
// pending) or the far future; drain up to four events; or drain
// everything, so the next schedules refill an empty queue.
func runQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	e := NewEngine(1)
	ref := newRefBucketQueue()
	ids, last := 0, -1
	add := func(at Time) {
		id := ids
		ids++
		e.schedule(at, nil, func() { last = id })
		ref.schedule(at, id)
	}
	drained := 0
	drain := func() bool {
		ev, ok := e.next()
		want, wok := ref.next()
		if ok != wok {
			t.Fatalf("drain %d: engine has an event: %v, reference: %v", drained, ok, wok)
		}
		if !ok {
			return false
		}
		ev.fn()
		if last != want || e.now != ref.now {
			t.Fatalf("drain %d: engine gave event %d at t=%d, reference %d at t=%d", drained, last, e.now, want, ref.now)
		}
		drained++
		return true
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		arg := Time(ops[1])
		switch ops[0] % 6 {
		case 0:
			add(e.now - 1 - arg)
		case 1:
			add(e.now)
		case 2:
			add(e.now + 1 + arg%8)
		case 3:
			add(e.now + 1000 + arg*arg)
		case 4:
			for i := Time(0); i <= arg%4 && drain(); i++ {
			}
		case 5:
			for drain() {
			}
		}
	}
	for drain() {
	}
	if drained != ids {
		t.Fatalf("drained %d events, scheduled %d", drained, ids)
	}
}

// TestEventQueueMatchesBucketQueue runs seeded op streams through both
// queues: mostly schedules and short drains, so instants stay pending
// across many schedules, with an occasional full drain and refill.
func TestEventQueueMatchesBucketQueue(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 0, 4000)
		for len(ops) < cap(ops) {
			code := byte(rng.Intn(5))
			if rng.Intn(100) == 0 {
				code = 5
			}
			ops = append(ops, code, byte(rng.Intn(256)))
		}
		runQueueOps(t, ops)
	}
}

// FuzzEventQueue checks the engine's queue against the reference on
// arbitrary op streams.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 0, 2, 3, 0, 9, 2, 3, 4, 0, 1, 0, 4, 3, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runQueueOps(t, ops)
	})
}
