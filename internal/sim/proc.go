package sim

// Proc is a simulated process: a goroutine that advances virtual time by
// sleeping, transferring bytes through the fluid network, and blocking on
// resources and events. Exactly one Proc executes at a time.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	resume chan struct{}

	acct *Acct
	cats []string // category stack for cost accounting
}

// Eng returns the owning engine.
func (p *Proc) Eng() *Engine { return p.eng }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id.
func (p *Proc) ID() int { return p.id }

// Now returns current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// park yields the token and blocks until rescheduled. Callers must have
// arranged for a future wake-up (timer event, resource grant, event
// fire), otherwise Run reports a deadlock. The proc dispatches the next
// events itself: when its own wake is the next proc event (the common
// consecutive-sleep case) it continues with no goroutine switch at all,
// and otherwise it hands the token straight to the next runnable proc.
// Once Run has failed, park ends the goroutine instead (see unwind).
func (p *Proc) park() {
	e := p.eng
	e.exitIfStopping()
	switch e.dispatch(p) {
	case dispatchSelf:
		return
	case dispatchDrained:
		e.yield <- struct{}{} // return the token to Run
	}
	<-p.resume
	e.exitIfStopping()
}

// wake schedules p to resume at the current time (FIFO among same-time
// events).
func (p *Proc) wake() {
	p.eng.schedule(p.eng.now, p, nil)
}

// Sleep advances the process's virtual time by d, charging it to the
// current accounting category.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.charge(d)
	if d == 0 {
		return
	}
	p.eng.schedule(p.eng.now+d, p, nil)
	p.park()
}

// Yield reschedules the process behind all other work pending at the
// current instant.
func (p *Proc) Yield() {
	p.wake()
	p.park()
}

// Spawn starts a child process.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.eng.Spawn(name, fn)
}

// SetAcct attaches a cost account; subsequent Sleep/Transfer/lock waits
// are charged to the top category of the category stack.
func (p *Proc) SetAcct(a *Acct) { p.acct = a }

// PushCat pushes an accounting category; the returned func pops it.
// Typical use: defer p.PushCat("copy")(). Pushing the empty string masks
// outer categories: time spent is not charged anywhere.
func (p *Proc) PushCat(cat string) func() {
	p.cats = append(p.cats, cat)
	return func() { p.cats = p.cats[:len(p.cats)-1] }
}

// InCat runs fn with cat as the active accounting category.
func (p *Proc) InCat(cat string, fn func()) {
	defer p.PushCat(cat)()
	fn()
}

// charge records d against the current accounting category, if any.
func (p *Proc) charge(d Time) {
	if p.acct == nil || len(p.cats) == 0 || d <= 0 {
		return
	}
	if cat := p.cats[len(p.cats)-1]; cat != "" {
		p.acct.Add(cat, d)
	}
}
