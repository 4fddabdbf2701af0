package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// expectClose fails unless got is within tol (relative) of want.
func expectClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Fatalf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestFluidSingleTransferRate(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9) // 1 GB/s
	var dur Time
	e.Spawn("x", func(p *Proc) {
		start := p.Now()
		f.Transfer(p, 1e6, l) // 1 MB at 1GB/s = 1ms
		dur = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "duration", float64(dur), float64(Millisecond), 1e-6)
	if l.Bytes != 1e6 {
		t.Fatalf("link bytes = %v", l.Bytes)
	}
}

func TestFluidTwoTransfersShareLink(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var d1, d2 Time
	e.Spawn("a", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, l)
		d1 = p.Now() - s
	})
	e.Spawn("b", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, l)
		d2 = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share the link: each takes 2ms.
	expectClose(t, "d1", float64(d1), 2*float64(Millisecond), 1e-3)
	expectClose(t, "d2", float64(d2), 2*float64(Millisecond), 1e-3)
}

func TestFluidUnequalJobsWorkConserving(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var dShort, dLong Time
	e.Spawn("short", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 0.5e6, l)
		dShort = p.Now() - s
	})
	e.Spawn("long", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1.5e6, l)
		dLong = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Short: shares until its 0.5MB drains at 0.5GB/s = 1ms.
	expectClose(t, "dShort", float64(dShort), float64(Millisecond), 1e-3)
	// Long: 0.5MB during the shared ms, then 1.0MB alone at 1GB/s = 1ms more.
	expectClose(t, "dLong", float64(dLong), 2*float64(Millisecond), 1e-3)
}

func TestFluidPathBottleneck(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	fast := NewLink("fast", 4e9)
	slow := NewLink("slow", 1e9)
	var d Time
	e.Spawn("x", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, fast, slow)
		d = p.Now() - s
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "duration", float64(d), float64(Millisecond), 1e-6)
}

func TestFluidMaxMinFairnessCrossTraffic(t *testing.T) {
	// Job A uses links L1+L2; job B uses L1 only; job C uses L2 only.
	// L1 cap 1, L2 cap 2 (GB/s). Max-min: A=0.5, B=0.5 on L1;
	// C gets L2 residual = 1.5.
	e := NewEngine(1)
	f := NewFluid(e)
	l1 := NewLink("l1", 1e9)
	l2 := NewLink("l2", 2e9)
	res := map[string]Time{}
	run := func(name string, bytes float64, links ...*Link) {
		e.Spawn(name, func(p *Proc) {
			s := p.Now()
			f.Transfer(p, bytes, links...)
			res[name] = p.Now() - s
		})
	}
	// Large enough that completion-order effects are negligible at start.
	run("A", 0.5e6, l1, l2)
	run("B", 0.5e6, l1)
	run("C", 1.5e6, l2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "A", float64(res["A"]), float64(Millisecond), 0.01)
	expectClose(t, "B", float64(res["B"]), float64(Millisecond), 0.01)
	expectClose(t, "C", float64(res["C"]), float64(Millisecond), 0.01)
}

func TestFluidStaggeredArrival(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var d1 Time
	e.Spawn("first", func(p *Proc) {
		s := p.Now()
		f.Transfer(p, 1e6, l)
		d1 = p.Now() - s
	})
	e.Spawn("second", func(p *Proc) {
		p.Sleep(500 * Microsecond)
		f.Transfer(p, 1e6, l)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// First: alone for 0.5ms (0.5MB done), shared for 1ms (0.5MB at half
	// rate) = 1.5ms total.
	expectClose(t, "d1", float64(d1), 1.5*float64(Millisecond), 1e-3)
}

func TestFluidZeroBytesNoop(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	e.Spawn("x", func(p *Proc) {
		f.Transfer(p, 0, l)
		if p.Now() != 0 {
			t.Error("zero transfer advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFluidManyTransfersConservation(t *testing.T) {
	// N equal jobs over one link must take exactly N * bytes / cap.
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 2e9)
	const n = 16
	var last Time
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			f.Transfer(p, 1e6, l)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "makespan", float64(last), float64(n)*1e6/2e9*float64(Second), 1e-3)
}

// TestFluidWaterfillProperties checks, over random configurations, that
// the rate assignment (a) never oversubscribes a link and (b) is
// work-conserving at each bottleneck (every job is limited by at least
// one saturated link).
func TestFluidWaterfillProperties(t *testing.T) {
	check := func(seed int64) bool {
		e := NewEngine(seed)
		f := NewFluid(e)
		rng := e.Rand
		nLinks := 2 + rng.Intn(4)
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = NewLink(fmt.Sprintf("l%d", i), float64(1+rng.Intn(8))*1e9)
		}
		nJobs := 1 + rng.Intn(8)
		for i := 0; i < nJobs; i++ {
			// Random non-empty subset of links.
			var ls []*Link
			for _, l := range links {
				if rng.Intn(2) == 0 {
					ls = append(ls, l)
				}
			}
			if len(ls) == 0 {
				ls = append(ls, links[rng.Intn(nLinks)])
			}
			f.join(&fjob{links: ls, remaining: 1e6})
		}
		f.waterfill(f.jobs)
		// (a) No link oversubscribed.
		load := map[*Link]float64{}
		for _, j := range f.jobs {
			if j.rate <= 0 {
				return false
			}
			for _, l := range j.links {
				load[l] += j.rate
			}
		}
		for l, v := range load {
			if v > l.Cap*(1+1e-9) {
				return false
			}
		}
		// (b) Every job crosses at least one saturated link.
		for _, j := range f.jobs {
			sat := false
			for _, l := range j.links {
				if load[l] >= l.Cap*(1-1e-9) {
					sat = true
					break
				}
			}
			if !sat {
				return false
			}
		}
		f.jobs = nil
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFluidTransferChargesAcct(t *testing.T) {
	e := NewEngine(1)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	a := NewAcct()
	e.Spawn("x", func(p *Proc) {
		p.SetAcct(a)
		p.InCat("copy", func() {
			f.Transfer(p, 1e6, l)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	expectClose(t, "acct copy", float64(a.Get("copy")), float64(Millisecond), 1e-6)
}

// TestFluidInterleavedStartStop stresses membership churn: transfers of
// random sizes starting at random times must all complete and total
// link bytes must equal the sum of transfer sizes.
func TestFluidInterleavedStartStop(t *testing.T) {
	e := NewEngine(5)
	f := NewFluid(e)
	l := NewLink("l", 1e9)
	var total float64
	done := 0
	const n = 50
	for i := 0; i < n; i++ {
		sz := float64(1+e.Rand.Intn(1000)) * 1e3
		delay := Time(e.Rand.Intn(2000)) * Microsecond
		total += sz
		e.Spawn(fmt.Sprintf("x%d", i), func(p *Proc) {
			p.Sleep(delay)
			f.Transfer(p, sz, l)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if math.Abs(l.Bytes-total) > 1 {
		t.Fatalf("link bytes = %v, want %v", l.Bytes, total)
	}
	if f.Active() != 0 {
		t.Fatalf("active jobs left: %d", f.Active())
	}
}

// TestFluidMakespanLowerBound: the makespan can never beat the most
// loaded link's total bytes divided by its capacity.
func TestFluidMakespanLowerBound(t *testing.T) {
	e := NewEngine(9)
	f := NewFluid(e)
	a := NewLink("a", 1e9)
	b := NewLink("b", 2e9)
	var last Time
	loads := map[*Link]float64{}
	for i := 0; i < 12; i++ {
		links := []*Link{a}
		if i%3 == 0 {
			links = []*Link{a, b}
		} else if i%3 == 1 {
			links = []*Link{b}
		}
		sz := float64(100+e.Rand.Intn(900)) * 1e3
		for _, l := range links {
			loads[l] += sz
		}
		ls := links
		e.Spawn(fmt.Sprintf("j%d", i), func(p *Proc) {
			f.Transfer(p, sz, ls...)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bound := loads[a] / a.Cap
	if lb := loads[b] / b.Cap; lb > bound {
		bound = lb
	}
	if last.Seconds() < bound*(1-1e-9) {
		t.Fatalf("makespan %v beats lower bound %.6fs", last, bound)
	}
}

// TestFluidLinkServesOneFluid: a link belongs to the first Fluid that
// carries a flow over it, and a flow over it from another Fluid panics
// instead of corrupting both networks' user lists.
func TestFluidLinkServesOneFluid(t *testing.T) {
	e := NewEngine(1)
	a, b := NewFluid(e), NewFluid(e)
	l := NewLink("shared", 1e9)
	a.join(&fjob{links: []*Link{l}, remaining: 1})
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "link shared already serves another Fluid") {
			t.Fatalf("join over another Fluid's link: %s, want the ownership panic", r)
		}
	}()
	b.join(&fjob{links: []*Link{l}, remaining: 1})
}

// refWaterfill is the whole-network max-min solve the component-local
// one replaced, kept as the reference: every in-flight job, links in
// first-use order, each bottleneck found by a scan of every link and
// settled by a scan of every job's path. It returns the jobs' rates in
// order and keeps its state to itself.
func refWaterfill(jobs []*fjob) []float64 {
	type linkState struct {
		residual float64
		njobs    int
		settled  bool
	}
	idx := map[*Link]int{}
	var state []linkState
	for _, j := range jobs {
		for _, l := range j.links {
			if _, ok := idx[l]; !ok {
				idx[l] = len(state)
				state = append(state, linkState{residual: l.Cap})
			}
		}
	}
	for _, j := range jobs {
		for _, l := range j.links {
			state[idx[l]].njobs++
		}
	}
	rate := make([]float64, len(jobs))
	settled := make([]bool, len(jobs))
	unsettledJobs := len(jobs)
	for unsettledJobs > 0 {
		bn := -1
		best := math.Inf(1)
		for i := range state {
			l := &state[i]
			if l.settled || l.njobs == 0 {
				continue
			}
			share := l.residual / float64(l.njobs)
			if share < best {
				best = share
				bn = i
			}
		}
		if bn < 0 {
			panic("refWaterfill found no bottleneck with unsettled jobs")
		}
		state[bn].settled = true
		for ji, j := range jobs {
			if settled[ji] {
				continue
			}
			onBn := false
			for _, l := range j.links {
				if idx[l] == bn {
					onBn = true
					break
				}
			}
			if !onBn {
				continue
			}
			rate[ji] = best
			settled[ji] = true
			unsettledJobs--
			for _, l := range j.links {
				if idx[l] == bn {
					continue
				}
				s := &state[idx[l]]
				s.residual -= best
				if s.residual < 0 {
					s.residual = 0
				}
				s.njobs--
			}
		}
		state[bn].njobs = 0
	}
	return rate
}

// fluidSource feeds the fluid op interpreter: *rand.Rand is one,
// fluidBytes replays fuzz input.
type fluidSource interface{ Intn(n int) int }

// fluidBytes draws each value from the next two input bytes, and zeros
// once the input is spent.
type fluidBytes []byte

func (b *fluidBytes) Intn(n int) int {
	v := 0
	for i := 0; i < 2 && len(*b) > 0; i++ {
		v = v<<8 | int((*b)[0])
		*b = (*b)[1:]
	}
	return v % n
}

// maxInFlight bounds the interpreter's in-flight jobs so the reference
// solve stays cheap.
const maxInFlight = 24

// fluidOps drives a Fluid's join/leave bookkeeping and its
// component-local re-solve — exactly what Transfer and complete do,
// without procs or virtual time — through arrivals over random link
// subsets of a 2–12 link network and completions of random job
// subsets. It is the interpreter shared by TestFluidDifferential and
// FuzzFluid.
type fluidOps struct {
	src   fluidSource
	f     *Fluid
	links []*Link
	// Non-empty re-solves narrower than the whole network, and as wide
	// as it.
	partial, whole int
}

func newFluidOps(src fluidSource) *fluidOps {
	o := &fluidOps{src: src, f: NewFluid(NewEngine(1))}
	n := 2 + src.Intn(11)
	for i := 0; i < n; i++ {
		// {1, 2, 4} GB/s: equal shares across links are common, so
		// bottleneck ties must break the way the reference breaks them.
		o.links = append(o.links, NewLink(fmt.Sprintf("l%d", i), float64(int(1)<<src.Intn(3))*1e9))
	}
	return o
}

// step applies one arrival or completion, re-solves, and checks every
// in-flight rate and every link's user list against the reference.
func (o *fluidOps) step(t *testing.T) {
	f, src := o.f, o.src
	var changed []*Link
	if n := len(f.jobs); n == 0 || n < maxInFlight && src.Intn(2) == 0 {
		// Arrival over a subset of density 1/2, 1/4 or 1/8, so the
		// job–link graph is sometimes one component and sometimes
		// many. The path starts at a random link, so first-use order
		// differs from link order.
		mask := src.Intn(1 << len(o.links))
		for d := src.Intn(3); d > 0; d-- {
			mask &= src.Intn(1 << len(o.links))
		}
		rot := src.Intn(len(o.links))
		var path []*Link
		for i := range o.links {
			k := (rot + i) % len(o.links)
			if mask>>k&1 == 1 || mask == 0 && i == 0 {
				path = append(path, o.links[k])
			}
		}
		f.join(&fjob{links: path, remaining: 1})
		changed = path
	} else {
		// Completion of a random subset: job i finishes when bit i%8
		// of the mask is set, or one random job on an empty mask.
		mask := src.Intn(256)
		for i, j := range f.jobs {
			if mask>>(i%8)&1 == 1 {
				j.remaining = 0
			}
		}
		if mask == 0 {
			f.jobs[src.Intn(n)].remaining = 0
		}
		changed = f.leave()
	}
	if len(f.jobs) > 0 {
		comp := f.affected(changed)
		switch {
		case len(comp) == len(f.jobs):
			o.whole++
		case len(comp) > 0:
			o.partial++
		}
		f.waterfill(comp)
	}
	o.check(t)
}

func (o *fluidOps) check(t *testing.T) {
	t.Helper()
	jobs := o.f.jobs
	for i, want := range refWaterfill(jobs) {
		if got := jobs[i].rate; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("job %d of %d: rate %v (%#x), reference %v (%#x)",
				i, len(jobs), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, l := range o.links {
		var want []*fjob
		for _, j := range jobs {
			if slices.Contains(j.links, l) {
				want = append(want, j)
			}
		}
		if !slices.Equal(l.users, want) {
			t.Fatalf("link %s: %d users, want the %d in-flight jobs crossing it in arrival order",
				l.Name, len(l.users), len(want))
		}
	}
}

// TestFluidDifferential: after every arrival and completion of 24,000
// seeded random steps, each in-flight job's rate from the
// component-local re-solve equals the whole-network reference's bit for
// bit, and each link's user list holds exactly its in-flight jobs. The
// trace must exercise both narrow and whole-network re-solves.
func TestFluidDifferential(t *testing.T) {
	partial, whole := 0, 0
	for seed := int64(1); seed <= 48; seed++ {
		o := newFluidOps(rand.New(rand.NewSource(seed)))
		for step := 0; step < 500; step++ {
			o.step(t)
		}
		partial += o.partial
		whole += o.whole
	}
	t.Logf("%d narrow and %d whole-network re-solves", partial, whole)
	if partial == 0 || whole == 0 {
		t.Fatalf("%d narrow and %d whole-network re-solves; the trace must reach both", partial, whole)
	}
}

// FuzzFluid runs the TestFluidDifferential op interpreter on fuzz
// input, checking rates and user lists after every op.
func FuzzFluid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fluidBytes(data)
		o := newFluidOps(&src)
		for step := 0; step < 512 && len(src) > 0; step++ {
			o.step(t)
		}
	})
}
