package kern

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"numamig/internal/sim"
)

// testDaemon is a pure hub daemon: Poll answers verdict and Period
// answers period, fields the test sets from procs or engine callbacks
// between ticks, never from inside a poll.
type testDaemon struct {
	name    string
	period  sim.Time
	verdict TickVerdict
}

func (d *testDaemon) Name() string      { return d.name }
func (d *testDaemon) Period() sim.Time  { return d.period }
func (d *testDaemon) Poll() TickVerdict { return d.verdict }
func (d *testDaemon) Run(*sim.Proc)     {}

// TestHubIdleTicksAllocateNothing: once the hub's buckets and the
// engine's queue have warmed up, an idle tick allocates nothing, in
// both daemon shapes the host-time benchmark drives — eight daemons on
// staggered deadlines (serve-observed) and 256 sharing one deadline
// (churn-256node) — whether each deadline takes its own timer event (a
// callback every sixteenth of a period keeps another event pending
// before it) or the hub runs the idle deadlines inline (only the
// retiring callback is pending). A run twice as long must allocate no
// more.
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
			for _, inline := range []bool{false, true} {
				name := "timed"
				if inline {
					name = "inline"
				}
				t.Run(name, func(t *testing.T) {
					ds := make([]testDaemon, shape.daemons)
					var steps uint64
					allocs := func(periods int) float64 {
						return testing.AllocsPerRun(5, func() {
							eng := sim.NewEngine(1)
							h := NewDaemonHub(eng)
							for i := range ds {
								d := &ds[i]
								*d = testDaemon{name: "idle", period: period, verdict: TickIdle}
								eng.At(sim.Time(i)*shape.stagger, func() { h.Register(d) })
							}
							end := sim.Time(periods)*period + 1
							eng.At(end, func() {
								for i := range ds {
									ds[i].verdict = TickRetire
								}
							})
							if !inline {
								var beat func()
								beat = func() {
									if eng.Now() < end {
										eng.At(period/16, beat)
									}
								}
								eng.At(0, beat)
							}
							eng.MustRun()
							steps = eng.Steps()
						})
					}
					const n = 50
					base, doubled := allocs(n), allocs(2*n)
					if extra := (doubled - base) / float64(n*shape.daemons); extra > 0 {
						t.Fatalf("%v allocations for %d daemon periods, %v for %d: %.3f per extra one, want 0",
							base, n*shape.daemons, doubled, 2*n*shape.daemons, extra)
					}
					// Registration takes one callback per daemon.
					if inline && steps-uint64(shape.daemons) >= 2*n {
						t.Fatalf("%d engine steps for %d daemons and %d periods, want the idle deadlines run inline",
							steps, shape.daemons, 2*n)
					}
				})
			}
		})
	}
}

// countedDaemon counts its polls in a counter of the test's, which no
// Poll answer reads.
type countedDaemon struct {
	testDaemon
	polls *int
}

func (d *countedDaemon) Poll() TickVerdict {
	*d.polls++
	return d.verdict
}

// TestHubPollsQuietBucketOncePerFire: nothing in the simulation changes
// while the hub runs quiet deadlines inline, so a bucket found quiet
// stays quiet for the rest of that callback. 256 daemons idling for
// 1,000 periods ahead of one pending callback take one poll each at
// their first tick, which runs the rest inline, and one at the tick
// after the callback, where they retire: 512 polls, not one per daemon
// per period.
func TestHubPollsQuietBucketOncePerFire(t *testing.T) {
	const period, daemons = 100, 256
	eng := sim.NewEngine(1)
	h := NewDaemonHub(eng)
	polls := 0
	ds := make([]countedDaemon, daemons)
	for i := range ds {
		ds[i] = countedDaemon{testDaemon{name: "idle", period: period, verdict: TickIdle}, &polls}
		h.Register(&ds[i])
	}
	eng.At(1000*period+1, func() {
		for i := range ds {
			ds[i].verdict = TickRetire
		}
	})
	eng.MustRun()
	if polls != 2*daemons {
		t.Fatalf("%d polls of %d daemons over 1,000 idle periods, want %d", polls, daemons, 2*daemons)
	}
}

// TestHubRejectsNonPositivePeriod: a daemon whose next deadline would
// not lie after now — a period of zero or less — would be drained
// again by the tick that re-armed it, forever, inside one engine event.
// The hub panics instead, naming the daemon and its period, whether
// the period is bad at Register or turns bad before a tick: alone in
// its bucket, in a bucket that would move whole, or in buckets the hub
// reaches while running quiet deadlines inline, which must leave such
// a bucket to its own tick. A tick is an engine callback, so that panic
// fails Run with the engine's callback error, at the tick's instant.
func TestHubRejectsNonPositivePeriod(t *testing.T) {
	// bad returns n daemons named bad, bad2, ..., whose period turns
	// to zero at t=500.
	bad := func(eng *sim.Engine, n int) []*testDaemon {
		ds := make([]*testDaemon, n)
		for i := range ds {
			ds[i] = &testDaemon{name: "bad", period: 1000, verdict: TickIdle}
			if i > 0 {
				ds[i].name = fmt.Sprint("bad", i+1)
			}
		}
		eng.At(500, func() {
			for _, d := range ds {
				d.period = 0
			}
		})
		return ds
	}
	for _, tc := range []struct {
		name       string
		setup      func(eng *sim.Engine, h *DaemonHub)
		atRegister bool     // the panic comes from Register itself
		period     sim.Time // the period the panic names
	}{
		{"zero at register", func(eng *sim.Engine, h *DaemonHub) {
			h.Register(&testDaemon{name: "bad", period: 0, verdict: TickIdle})
		}, true, 0},
		{"negative at register", func(eng *sim.Engine, h *DaemonHub) {
			h.Register(&testDaemon{name: "bad", period: -5, verdict: TickIdle})
		}, true, -5},
		{"zero after a tick", func(eng *sim.Engine, h *DaemonHub) {
			h.Register(bad(eng, 1)[0])
		}, false, 0},
		{"zero in a bucket moved whole", func(eng *sim.Engine, h *DaemonHub) {
			for _, d := range bad(eng, 3) {
				h.Register(d)
			}
			eng.At(5000, func() {})
		}, false, 0},
		{"zero at an inline deadline", func(eng *sim.Engine, h *DaemonHub) {
			// good ticks at 300 and 600, then runs its 900 tick
			// inline and reaches the bad bucket at 1000, which it must
			// leave to that bucket's own tick.
			h.Register(&testDaemon{name: "good", period: 300, verdict: TickIdle})
			for _, d := range bad(eng, 2) {
				h.Register(d)
			}
			eng.At(5000, func() {})
		}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			h := NewDaemonHub(eng)
			registered := false
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				tc.setup(eng, h)
				registered = true
				eng.MustRun()
				return ""
			}()
			want := fmt.Sprintf("kern: daemon bad has period %v", tc.period)
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
// tail, equal to it, earlier than it, and equal to a middle bucket, and
// the head bucket is taken and filed whole one period on, as a tick
// moves it, in seeded random order. After every step the bucket
// deadlines ascend strictly and each bucket holds its daemons in push
// order, a bucket filed onto an existing deadline after the daemons
// already there.
func TestHubPushKeepsDeadlineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		h := NewDaemonHub(sim.NewEngine(1))
		want := map[sim.Time][]HubDaemon{}
		ds := make([]testDaemon, 200)
		for i := range ds {
			d := &ds[i]
			d.name = fmt.Sprint("d", i)
			bs := h.buckets()
			n := len(bs)
			var when sim.Time
			switch k := rng.Intn(5); {
			case n == 0 || k == 0: // later than the tail
				when = 1 + sim.Time(rng.Intn(10))
				if n > 0 {
					when += bs[n-1].when
				}
			case k == 1: // equal to the tail
				when = bs[n-1].when
			case k == 2: // equal to any bucket, mostly a middle one
				when = bs[rng.Intn(n)].when
			case k == 3: // earlier than the tail, new or not
				when = 1 + sim.Time(rng.Int63n(int64(bs[n-1].when)))
			default: // the head moves whole, onto a new deadline or an old one
				b := h.take()
				next := b.when + 1 + sim.Time(rng.Intn(20))
				want[next] = append(want[next], want[b.when]...)
				delete(want, b.when)
				h.file(b, next)
				when = next
			}
			h.push(when, d)
			want[when] = append(want[when], d)

			bs = h.buckets()
			if len(bs) != len(want) {
				t.Fatalf("trial %d step %d: %d buckets, want %d", trial, i, len(bs), len(want))
			}
			for j, b := range bs {
				if j > 0 && b.when <= bs[j-1].when {
					t.Fatalf("trial %d step %d: bucket %d at %v after bucket at %v", trial, i, j, b.when, bs[j-1].when)
				}
				if !slices.Equal(b.ds, want[b.when]) {
					t.Fatalf("trial %d step %d: bucket at %v holds %v, want %v", trial, i, b.when, names(b.ds), names(want[b.when]))
				}
			}
		}
	}
}

func names(ds []HubDaemon) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name()
	}
	return out
}

// TestIdleDemotionSleepTakesFewSteps: one task sleeping 1,000 kswapd
// periods on a 1024-node machine whose demotion daemons all stay idle
// — the benchmark's kern.hub_idle_period_us probe — runs the idle
// periods inline, in a handful of engine steps, where a timer event
// per deadline takes one step per period.
func TestIdleDemotionSleepTakesFewSteps(t *testing.T) {
	h := newSmallHarness(1024, 256)
	h.k.EnableDemotion()
	period := h.k.P.KswapdPeriod
	h.run(t, 0, func(tk *Task) { tk.P.Sleep(1000 * period) })
	if got, want := h.eng.Now(), 1000*period; got != want {
		t.Fatalf("run ended at %v, want %v: the daemons retire at the tick the task wakes for", got, want)
	}
	if steps := h.eng.Steps(); steps > 8 {
		t.Fatalf("%d engine steps for 1000 idle periods, want a handful", steps)
	}
}

// ---- the reference hub ----

// refHub is the daemon hub as it was before quiet deadlines ran inline:
// one timer event per distinct deadline, every due daemon re-armed by
// its own push. FuzzDaemonHub checks DaemonHub against it.
type refHub struct {
	eng      *sim.Engine
	buckets  []*hubBucket
	runners  map[HubDaemon]*hubRunner
	timerAt  sim.Time
	timerSet bool
}

func newRefHub(eng *sim.Engine) *refHub {
	return &refHub{eng: eng, runners: map[HubDaemon]*hubRunner{}}
}

func (h *refHub) Register(d HubDaemon) {
	h.push(h.eng.Now()+d.Period(), d)
	h.ensureTimer()
}

func (h *refHub) push(when sim.Time, d HubDaemon) {
	if when <= h.eng.Now() {
		panic(fmt.Sprintf("kern: daemon %s has period %v; its next tick must come after now", d.Name(), d.Period()))
	}
	i := sort.Search(len(h.buckets), func(j int) bool { return h.buckets[j].when >= when })
	if i < len(h.buckets) && h.buckets[i].when == when {
		h.buckets[i].ds = append(h.buckets[i].ds, d)
		return
	}
	h.buckets = slices.Insert(h.buckets, i, &hubBucket{when: when, ds: []HubDaemon{d}})
}

func (h *refHub) ensureTimer() {
	if len(h.buckets) == 0 {
		return
	}
	top := h.buckets[0].when
	if h.timerSet && h.timerAt <= top {
		return
	}
	h.timerAt = top
	h.timerSet = true
	h.eng.At(top-h.eng.Now(), h.fire)
}

func (h *refHub) fire() {
	h.timerSet = false
	now := h.eng.Now()
	for len(h.buckets) > 0 && h.buckets[0].when <= now {
		b := h.buckets[0]
		h.buckets = h.buckets[1:]
		for _, d := range b.ds {
			switch d.Poll() {
			case TickRetire:
				if r := h.runners[d]; r != nil {
					r.quit = true
					r.gate.Fire()
					delete(h.runners, d)
				}
			case TickIdle:
				h.push(now+d.Period(), d)
			case TickRun:
				r := h.runners[d]
				if r == nil {
					r = &hubRunner{d: d, gate: sim.NewEvent(h.eng)}
					h.runners[d] = r
					h.eng.Spawn(d.Name(), func(p *sim.Proc) { h.runLoop(p, r) })
				}
				r.gate.Fire()
			}
		}
	}
	h.ensureTimer()
}

func (h *refHub) runLoop(p *sim.Proc, r *hubRunner) {
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

// ---- seeded hub scripts ----

// hubHost is a hub as a script drives and observes it: a daemon is
// registered from Register until the hub drops it on TickRetire,
// whether it is queued or in a busy tick.
type hubHost interface {
	Register(HubDaemon)
	registered(HubDaemon) bool
}

func (h *DaemonHub) registered(d HubDaemon) bool {
	return h.runners[d] != nil || slices.ContainsFunc(h.buckets(), func(b *hubBucket) bool { return slices.Contains(b.ds, d) })
}

func (h *refHub) registered(d HubDaemon) bool {
	return h.runners[d] != nil || slices.ContainsFunc(h.buckets, func(b *hubBucket) bool { return slices.Contains(b.ds, d) })
}

// hubPlan is one decoded script: daemons with mixed periods, and actors
// (procs or engine callbacks) that at chosen instants make a daemon
// busy, idle or retiring or change its period. At horizon a callback
// retires every daemon, so the run ends.
type hubPlan struct {
	daemons []daemonPlan
	actors  []actorPlan
	horizon sim.Time
}

type daemonPlan struct {
	period, reg sim.Time   // first period; registration instant
	work        []sim.Time // Run's sleeps, cycled
	sticky      bool       // stays busy after Run, like the AutoNUMA scanner
}

type actorPlan struct {
	proc  bool // a proc sleeping to each step; else one callback per step
	steps []stepPlan
}

// A step acts on daemon d at instant at: 0 busy, 1 idle, 2 retire,
// 3 set its period to period.
type stepPlan struct {
	at      sim.Time
	kind, d int
	period  sim.Time
}

// decodeHubPlan reads a plan from script, each byte one choice; a
// short script reads zeros past its end.
func decodeHubPlan(script []byte) hubPlan {
	pick := func(n int) int {
		if len(script) == 0 || n <= 1 {
			return 0
		}
		v := int(script[0]) % n
		script = script[1:]
		return v
	}
	const horizon = 200
	plan := hubPlan{horizon: horizon}
	for i, n := 0, 1+pick(6); i < n; i++ {
		d := daemonPlan{period: 2 + sim.Time(pick(9)), sticky: pick(6) == 0}
		if pick(2) == 0 {
			d.reg = sim.Time(pick(12))
		}
		for j, w := 0, 1+pick(3); j < w; j++ {
			d.work = append(d.work, sim.Time(pick(12)))
		}
		plan.daemons = append(plan.daemons, d)
	}
	for i, n := 0, 1+pick(4); i < n; i++ {
		a := actorPlan{proc: pick(2) == 0}
		at := sim.Time(0)
		for j, m := 0, 1+pick(8); j < m; j++ {
			var s stepPlan
			switch pick(3) {
			case 0: // a random later instant
				at += 1 + sim.Time(pick(30))
			case 1: // exactly on a deadline of a daemon that has not run
				k := pick(len(plan.daemons))
				dp := plan.daemons[k]
				if at < dp.reg {
					at = dp.reg
				}
				at = dp.reg + ((at-dp.reg)/dp.period+1)*dp.period
			}
			// case 2: the same instant as the step before
			if at >= horizon {
				break
			}
			s.at = at
			s.kind, s.d = pick(4), pick(len(plan.daemons))
			s.period = 2 + sim.Time(pick(9))
			a.steps = append(a.steps, s)
		}
		plan.actors = append(plan.actors, a)
	}
	return plan
}

// scriptDaemon is a pure hub daemon driven by a plan's actors. Run logs
// its start and end, sleeps its next work time and, unless sticky or
// retiring, goes idle again.
type scriptDaemon struct {
	name    string
	period  sim.Time
	verdict TickVerdict
	plan    daemonPlan
	runs    int
	log     *hubLog
}

func (d *scriptDaemon) Name() string      { return d.name }
func (d *scriptDaemon) Period() sim.Time  { return d.period }
func (d *scriptDaemon) Poll() TickVerdict { return d.verdict }

func (d *scriptDaemon) Run(p *sim.Proc) {
	d.log.add(p.Now(), "run "+d.name)
	p.Sleep(d.plan.work[d.runs%len(d.plan.work)])
	d.runs++
	if d.verdict == TickRun && !d.plan.sticky {
		d.verdict = TickIdle
	}
	d.log.add(p.Now(), "done "+d.name)
}

// hubLog records a script run: every action, Run start and end, and,
// before each entry, every daemon the hub dropped since the last one.
type hubLog struct {
	host  hubHost
	ds    []*scriptDaemon
	state []int // 0 unregistered, 1 registered, 2 retired
	lines []string
}

func (l *hubLog) register(i int) {
	l.host.Register(l.ds[i])
	l.state[i] = 1
}

func (l *hubLog) add(now sim.Time, what string) {
	l.sweep(now)
	l.lines = append(l.lines, fmt.Sprintf("%d %s", now, what))
}

func (l *hubLog) sweep(now sim.Time) {
	for i, d := range l.ds {
		if l.state[i] == 1 && !l.host.registered(d) {
			l.state[i] = 2
			l.lines = append(l.lines, fmt.Sprintf("%d retired %s", now, d.name))
		}
	}
}

// runHubPlan runs plan on a fresh engine and hub and returns its log
// and the engine steps it took.
func runHubPlan(t *testing.T, plan hubPlan, newHub func(*sim.Engine) hubHost) ([]string, uint64) {
	t.Helper()
	eng := sim.NewEngine(1)
	eng.MaxSteps = 1 << 20
	l := &hubLog{host: newHub(eng), state: make([]int, len(plan.daemons))}
	for i, dp := range plan.daemons {
		l.ds = append(l.ds, &scriptDaemon{name: fmt.Sprint("d", i), period: dp.period, verdict: TickIdle, plan: dp, log: l})
	}
	for i, dp := range plan.daemons {
		if dp.reg == 0 {
			l.register(i)
		} else {
			eng.At(dp.reg, func() { l.register(i) })
		}
	}
	for a, ap := range plan.actors {
		act := func(s stepPlan) {
			d := l.ds[s.d]
			what := [...]string{"busy", "idle", "retire", "period"}[s.kind]
			switch s.kind {
			case 0:
				d.verdict = TickRun
			case 1:
				d.verdict = TickIdle
			case 2:
				d.verdict = TickRetire
			case 3:
				d.period = s.period
				what = fmt.Sprint("period ", s.period)
			}
			l.add(eng.Now(), fmt.Sprintf("a%d %s %s", a, what, d.name))
		}
		if ap.proc {
			eng.Spawn(fmt.Sprint("a", a), func(p *sim.Proc) {
				for _, s := range ap.steps {
					if s.at > p.Now() {
						p.Sleep(s.at - p.Now())
					} else {
						p.Yield()
					}
					act(s)
				}
			})
			continue
		}
		for _, s := range ap.steps {
			eng.At(s.at, func() { act(s) })
		}
	}
	eng.At(plan.horizon, func() {
		for _, d := range l.ds {
			d.verdict = TickRetire
		}
		l.add(eng.Now(), "retire all")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	l.sweep(eng.Now())
	return l.lines, eng.Steps()
}

// checkHubScript runs one script on DaemonHub and on refHub and fails
// at the first log line where they differ, or if the hub took more
// engine steps than the reference.
func checkHubScript(t *testing.T, script []byte) {
	t.Helper()
	plan := decodeHubPlan(script)
	got, steps := runHubPlan(t, plan, func(eng *sim.Engine) hubHost { return NewDaemonHub(eng) })
	want, refSteps := runHubPlan(t, plan, func(eng *sim.Engine) hubHost { return newRefHub(eng) })
	for i := range max(len(got), len(want)) {
		g, w := "(end)", "(end)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("plan %+v\nlog line %d: hub %q, reference %q\nhub log:\n%s\nreference log:\n%s",
				plan, i, g, w, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	if steps > refSteps {
		t.Fatalf("hub took %d engine steps, reference %d", steps, refSteps)
	}
}

// TestDaemonHubMatchesReference runs seeded random scripts through
// DaemonHub and refHub; FuzzDaemonHub explores further.
func TestDaemonHubMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for seed := 0; seed < 300; seed++ {
		script := make([]byte, 40+rng.Intn(120))
		rng.Read(script)
		checkHubScript(t, script)
	}
}

// FuzzDaemonHub checks DaemonHub against the event-per-deadline
// reference on arbitrary scripts: every Run start and end and every
// retirement must come at the same time and in the same order among
// the script's own actions.
func FuzzDaemonHub(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 4, 1, 0, 5, 3, 1, 2, 0, 7, 1, 2, 0, 1, 3, 1, 0, 0, 1, 2, 6, 1, 1, 0, 2, 1, 0, 3})
	f.Fuzz(checkHubScript)
}
