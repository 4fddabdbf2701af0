package kern

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"numamig/internal/sim"
)

// testDaemon idles through its polls, then retires. After its first
// poll its period becomes next. A second poll at one instant means the
// hub looped inside one tick; it panics so the test fails instead of
// hanging.
type testDaemon struct {
	name         string
	period, next sim.Time
	polls        int
	lastPoll     sim.Time
	eng          *sim.Engine
}

func (d *testDaemon) Name() string     { return d.name }
func (d *testDaemon) Period() sim.Time { return d.period }
func (d *testDaemon) Run(*sim.Proc)    {}

func (d *testDaemon) Poll() TickVerdict {
	now := d.eng.Now()
	if now == d.lastPoll {
		panic(fmt.Sprintf("%s polled twice at %v", d.name, now))
	}
	d.lastPoll = now
	d.period = d.next
	if d.polls == 0 {
		return TickRetire
	}
	d.polls--
	return TickIdle
}

// TestHubIdleTicksAllocateNothing: once the hub's buckets and the
// engine's queue have warmed up, an idle tick allocates nothing, in
// both daemon shapes the host-time benchmark drives — eight daemons on
// staggered deadlines (serve-observed) and 256 sharing one deadline
// (churn-256node). A run with twice the polls must allocate no more.
func TestHubIdleTicksAllocateNothing(t *testing.T) {
	const period = 200 * sim.Microsecond
	for _, shape := range []struct {
		name    string
		daemons int
		stagger sim.Time // between consecutive registrations
	}{
		{"8-staggered", 8, period / 8},
		{"256-one-deadline", 256, 0},
	} {
		t.Run(shape.name, func(t *testing.T) {
			ds := make([]testDaemon, shape.daemons)
			allocs := func(polls int) float64 {
				return testing.AllocsPerRun(5, func() {
					eng := sim.NewEngine(1)
					h := NewDaemonHub(eng)
					for i := range ds {
						d := &ds[i]
						*d = testDaemon{name: "idle", period: period, next: period, polls: polls, lastPoll: -1, eng: eng}
						eng.At(sim.Time(i)*shape.stagger, func() { h.Register(d) })
					}
					eng.MustRun()
				})
			}
			const n = 50
			base, doubled := allocs(n), allocs(2*n)
			if extra := (doubled - base) / float64(n*shape.daemons); extra > 0 {
				t.Fatalf("%v allocations for %d polls, %v for %d: %.3f per extra poll, want 0",
					base, n*shape.daemons, doubled, 2*n*shape.daemons, extra)
			}
		})
	}
}

// TestHubRejectsNonPositivePeriod: a daemon whose next deadline would
// not lie after now — a period of zero or less — would be drained
// again by the tick that re-armed it, forever, inside one engine event.
// The hub panics instead, naming the daemon and its period, whether
// the period is bad at Register or turns bad after a tick; a tick is an
// engine callback, so that panic fails Run with the engine's callback
// error.
func TestHubRejectsNonPositivePeriod(t *testing.T) {
	for _, tc := range []struct {
		name         string
		period, next sim.Time
		atRegister   bool // the panic comes from Register itself
	}{
		{"zero at register", 0, 0, true},
		{"negative at register", -5, -5, true},
		{"zero after a tick", 1000, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			h := NewDaemonHub(eng)
			d := &testDaemon{name: "bad", period: tc.period, next: tc.next, polls: 3, lastPoll: -1, eng: eng}
			registered := false
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				h.Register(d)
				registered = true
				eng.MustRun()
				return ""
			}()
			want := fmt.Sprintf("kern: daemon bad has period %v", tc.next)
			if tc.atRegister && !strings.HasPrefix(msg, want) {
				t.Fatalf("panic %q, want it to start with %q", msg, want)
			}
			// A tick runs as an engine callback: Run fails with an error
			// that names the callback and carries the panic.
			if !tc.atRegister && !(strings.HasPrefix(msg, "sim: callback ") && strings.Contains(msg, "panicked at t=1000ns: "+want)) {
				t.Fatalf("panic %q, want a callback error at t=1000ns carrying %q", msg, want)
			}
			if registered == tc.atRegister {
				t.Fatalf("Register returned: %v, want the panic from Register: %v", registered, tc.atRegister)
			}
		})
	}
}

// TestHubPushKeepsDeadlineOrder: push files deadlines later than the
// tail, equal to it, earlier than it, and equal to a middle bucket, in
// seeded random order. After every push the bucket deadlines ascend
// strictly and each bucket holds its daemons in push order.
func TestHubPushKeepsDeadlineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		h := NewDaemonHub(sim.NewEngine(1))
		want := map[sim.Time][]HubDaemon{}
		ds := make([]testDaemon, 200)
		for i := range ds {
			d := &ds[i]
			d.name = fmt.Sprint("d", i)
			n := len(h.buckets)
			var when sim.Time
			switch k := rng.Intn(4); {
			case n == 0 || k == 0: // later than the tail
				when = 1 + sim.Time(rng.Intn(10))
				if n > 0 {
					when += h.buckets[n-1].when
				}
			case k == 1: // equal to the tail
				when = h.buckets[n-1].when
			case k == 2: // equal to any bucket, mostly a middle one
				when = h.buckets[rng.Intn(n)].when
			default: // earlier than the tail, new or not
				when = 1 + sim.Time(rng.Int63n(int64(h.buckets[n-1].when)))
			}
			h.push(when, d)
			want[when] = append(want[when], d)

			if len(h.buckets) != len(want) || h.n != i+1 {
				t.Fatalf("trial %d push %d: %d buckets holding %d daemons, want %d holding %d",
					trial, i, len(h.buckets), h.n, len(want), i+1)
			}
			for j, b := range h.buckets {
				if j > 0 && b.when <= h.buckets[j-1].when {
					t.Fatalf("trial %d push %d: bucket %d at %v after bucket at %v", trial, i, j, b.when, h.buckets[j-1].when)
				}
				w := want[b.when]
				if len(b.ds) != len(w) {
					t.Fatalf("trial %d push %d: bucket at %v holds %d daemons, want %d", trial, i, b.when, len(b.ds), len(w))
				}
				for k := range w {
					if b.ds[k] != w[k] {
						t.Fatalf("trial %d push %d: bucket at %v holds %s at %d, want %s",
							trial, i, b.when, b.ds[k].Name(), k, w[k].Name())
					}
				}
			}
		}
	}
}
