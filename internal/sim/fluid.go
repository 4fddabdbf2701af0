package sim

import (
	"math"
	"slices"
)

// Link is a capacity-limited channel in the fluid bandwidth network: a
// memory controller, a HyperTransport link, a per-core copy engine, or the
// kernel's page-migration channel. Capacity is in bytes per second.
type Link struct {
	Name string
	Cap  float64 // bytes/second

	// Stats.
	Bytes float64 // total bytes served

	// owner is the Fluid that first carried a flow over the link; users
	// are its in-flight jobs crossing the link, in arrival order. A link
	// serves one Fluid, so that Fluid's counter alone issues its marks.
	owner *Fluid
	users []*fjob

	// waterfill scratch state
	residual float64
	njobs    int
	settled  bool
	mark     uint64 // owner's stamp: dedup without a per-call map
}

// NewLink creates a link with the given capacity in bytes/second.
func NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic("sim: link capacity must be positive: " + name)
	}
	return &Link{Name: name, Cap: capacity}
}

type fjob struct {
	links     []*Link
	remaining float64
	rate      float64
	p         *Proc
	settled   bool
	mark      uint64
}

// drained reports whether the job has delivered its bytes, to within
// the milli-byte that float rates and whole-nanosecond completion
// instants leave behind.
func (j *fjob) drained() bool { return j.remaining <= 1e-3 }

// Fluid models concurrent bulk transfers over shared links with max-min
// fair bandwidth allocation (progressive water-filling). Each transfer
// occupies a path of links; its instantaneous rate is recomputed whenever
// the set of active transfers changes. This reproduces the
// processor-sharing behaviour of real memory controllers and interconnect
// links under contention.
//
// Max-min rates decompose over the connected components of the job–link
// graph, so a membership change re-solves only the components of the
// links whose flow set changed; every other flow keeps its rate.
type Fluid struct {
	eng     *Engine
	jobs    []*fjob // in-flight transfers, in arrival order
	lastUpd Time
	gen     uint64
	mark    uint64 // last stamp issued to this Fluid's links and jobs

	// scratch, reused across reconfigures
	wfLinks []*Link
	walk    []*Link
	comp    []*fjob
	changed []*Link
}

// NewFluid creates a fluid network on the engine.
func NewFluid(e *Engine) *Fluid { return &Fluid{eng: e} }

// Active returns the number of in-flight transfers.
func (f *Fluid) Active() int { return len(f.jobs) }

// Transfer moves bytes across the path of links, blocking the calling
// process until complete. Bandwidth is shared max-min fairly with all
// concurrent transfers. The elapsed time is charged to the caller's
// current accounting category. A link serves the first Fluid that
// carries a flow over it; a transfer over a link another Fluid owns
// panics.
func (f *Fluid) Transfer(p *Proc, bytes float64, links ...*Link) {
	if bytes <= 0 {
		return
	}
	if len(links) == 0 {
		panic("sim: transfer with no links")
	}
	start := f.eng.now
	j := &fjob{links: links, remaining: bytes, p: p}
	f.advance()
	f.join(j)
	for _, l := range links {
		l.Bytes += bytes
	}
	f.reconfigure(links)
	p.park()
	p.charge(f.eng.now - start)
}

// join adds j to the in-flight set and to the user list of every link
// it crosses.
func (f *Fluid) join(j *fjob) {
	for _, l := range j.links {
		if l.owner != f {
			if l.owner != nil {
				panic("sim: link " + l.Name + " already serves another Fluid")
			}
			l.owner = f
		}
		l.users = append(l.users, j)
	}
	f.jobs = append(f.jobs, j)
}

// leave removes every drained job from the in-flight set and from its
// links' user lists, keeping arrival order, and returns the links whose
// flow set changed.
func (f *Fluid) leave() []*Link {
	m := f.nextMark()
	changed := f.changed[:0]
	for _, j := range f.jobs {
		if !j.drained() {
			continue
		}
		for _, l := range j.links {
			if l.mark != m {
				l.mark = m
				changed = append(changed, l)
			}
		}
	}
	f.jobs = slices.DeleteFunc(f.jobs, (*fjob).drained)
	for _, l := range changed {
		l.users = slices.DeleteFunc(l.users, (*fjob).drained)
	}
	f.changed = changed
	return changed
}

// advance drains progress for all jobs up to the current instant.
func (f *Fluid) advance() {
	dt := f.eng.now - f.lastUpd
	f.lastUpd = f.eng.now
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	for _, j := range f.jobs {
		j.remaining -= j.rate * sec
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

// reconfigure recomputes the max-min fair rates a flow-set change on
// the changed links can move and schedules the next completion instant.
func (f *Fluid) reconfigure(changed []*Link) {
	f.gen++
	if len(f.jobs) == 0 {
		return
	}
	f.waterfill(f.affected(changed))
	// Next completion.
	minDt := math.Inf(1)
	for _, j := range f.jobs {
		if j.rate <= 0 {
			continue
		}
		if dt := j.remaining / j.rate; dt < minDt {
			minDt = dt
		}
	}
	if math.IsInf(minDt, 1) {
		// All rates zero: cannot happen with positive link capacities.
		panic("sim: fluid jobs with zero rate")
	}
	dtNs := Time(math.Ceil(minDt * float64(Second)))
	if dtNs < 1 {
		dtNs = 1
	}
	gen := f.gen
	f.eng.At(dtNs, func() {
		if f.gen != gen {
			return // superseded by a later membership change
		}
		f.advance()
		f.complete()
	})
}

// complete finishes all drained jobs, waking their processes, then
// reconfigures the remainder.
func (f *Fluid) complete() {
	for _, j := range f.jobs {
		if j.drained() {
			j.p.wake()
		}
	}
	f.reconfigure(f.leave())
}

// nextMark issues a fresh stamp for this Fluid's links and jobs.
func (f *Fluid) nextMark() uint64 {
	f.mark++
	return f.mark
}

// affected returns the in-flight jobs in the connected components, in
// the job–link graph, of the changed links, in arrival order. When one
// changed link carries every in-flight job the component is the whole
// network and no walk is needed.
func (f *Fluid) affected(changed []*Link) []*fjob {
	for _, l := range changed {
		if len(l.users) == len(f.jobs) {
			return f.jobs
		}
	}
	m := f.nextMark()
	walk := append(f.walk[:0], changed...)
	for len(walk) > 0 {
		l := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		if l.mark == m {
			continue
		}
		l.mark = m
		for _, j := range l.users {
			if j.mark != m {
				j.mark = m
				walk = append(walk, j.links...)
			}
		}
	}
	f.walk = walk
	comp := f.comp[:0]
	for _, j := range f.jobs {
		if j.mark == m {
			comp = append(comp, j)
		}
	}
	f.comp = comp
	return comp
}

// waterfill assigns max-min fair rates to jobs, which must be whole
// connected components of the job–link graph in arrival order:
// repeatedly find the most constrained link (smallest residual capacity
// per unsettled job), fix that share for its jobs, subtract, and
// continue. Links are visited in first-use order, so a component's
// bottleneck ties break exactly as in a solve of the whole network, and
// its rates come out bit for bit the same.
func (f *Fluid) waterfill(jobs []*fjob) {
	m := f.nextMark()
	links := f.wfLinks[:0]
	for _, j := range jobs {
		j.rate = 0
		j.settled = false
		for _, l := range j.links {
			if l.mark != m {
				l.mark = m
				l.residual = l.Cap
				l.njobs = len(l.users)
				l.settled = false
				links = append(links, l)
			}
		}
	}
	f.wfLinks = links
	unsettledJobs := len(jobs)
	for unsettledJobs > 0 {
		// Find bottleneck link.
		var bn *Link
		best := math.Inf(1)
		for _, l := range links {
			if l.settled || l.njobs == 0 {
				continue
			}
			share := l.residual / float64(l.njobs)
			if share < best {
				best = share
				bn = l
			}
		}
		if bn == nil {
			panic("sim: waterfill found no bottleneck with unsettled jobs")
		}
		bn.settled = true
		for _, j := range bn.users {
			if j.settled {
				continue
			}
			j.rate = best
			j.settled = true
			unsettledJobs--
			for _, l := range j.links {
				if l == bn {
					continue
				}
				l.residual -= best
				if l.residual < 0 {
					l.residual = 0
				}
				l.njobs--
			}
		}
		bn.njobs = 0
	}
}
