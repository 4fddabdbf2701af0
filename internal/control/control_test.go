package control

import (
	"testing"

	"numamig/internal/kern"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
)

// newTestKernel builds a minimal two-node kernel for controller tests.
func newTestKernel(t *testing.T) (*sim.Engine, *kern.Kernel) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := topology.Grid(2, 1, 512*model.PageSize, 1<<20)
	k := kern.New(eng, m, model.Default(), false)
	return eng, k
}

// TestAIMDDecisions drives tick() directly through the three rule arms:
// drops widen multiplicatively, idle periods decay, steady state holds.
func TestAIMDDecisions(t *testing.T) {
	_, k := newTestKernel(t)
	c := &Controller{k: k, cur: minMBps}

	c.drops = 3 // bottlenecked: widen 1 -> 2
	c.tick()
	if c.cur != 2 || c.Stats.Widens != 1 {
		t.Fatalf("after drops: cur = %g widens = %d, want 2 and 1", c.cur, c.Stats.Widens)
	}
	if k.P.PromoteRateLimitMBps != 2 {
		t.Fatalf("tick did not write the new limit into Params: %g", k.P.PromoteRateLimitMBps)
	}

	c.drops, c.upPages = 0, 5 // steady state: hold
	c.tick()
	if c.cur != 2 || c.Stats.Widens != 1 || c.Stats.Narrows != 0 {
		t.Fatalf("steady state changed the limit: cur = %g", c.cur)
	}

	// A run of idle periods one short of decayAfterIdle: the decay
	// hysteresis must hold the limit, so a bursty promoter does not lose
	// its widened bucket between batches.
	c.drops, c.upPages = 0, 0
	for i := 0; i < decayAfterIdle-1; i++ {
		c.tick()
	}
	if c.cur != 2 || c.Stats.Narrows != 0 {
		t.Fatalf("%d idle periods decayed the limit: cur = %g", decayAfterIdle-1, c.cur)
	}
	// The next consecutive idle period completes the run: 2 -> 1.
	c.tick()
	if c.cur != 1 || c.Stats.Narrows != 1 {
		t.Fatalf("after the idle run: cur = %g narrows = %d, want 1 and 1", c.cur, c.Stats.Narrows)
	}

	c.drops = 1 // widen repeatedly: must clamp at maxMBps
	for i := 0; i < 12; i++ {
		c.tick()
		c.drops = 1
	}
	if c.cur != maxMBps {
		t.Fatalf("limit escaped maxMBps: %g", c.cur)
	}

	c.drops, c.upPages = 0, 0 // decay repeatedly: must clamp at minMBps
	for i := 0; i < 12*decayAfterIdle; i++ {
		c.tick()
	}
	if c.cur != minMBps {
		t.Fatalf("limit escaped minMBps: %g", c.cur)
	}
	if c.Stats.PeakMBps != maxMBps {
		t.Fatalf("PeakMBps = %g, want %d", c.Stats.PeakMBps, maxMBps)
	}
}

// TestEnableDefaultsAndRetirement checks the initial limit, the bus
// subscriptions, and that the daemon retires once the engine has no
// live application threads (so Engine.Run drains).
func TestEnableDefaultsAndRetirement(t *testing.T) {
	eng, k := newTestKernel(t)
	c := EnableAdaptiveRateLimit(k)
	if c.cur != 1 {
		t.Errorf("initial limit %g, want 1", c.cur)
	}
	if k.P.PromoteRateLimitMBps != 1 {
		t.Errorf("enable did not install the initial limit: %g", k.P.PromoteRateLimitMBps)
	}
	if !k.Bus().Active(telemetry.TopicRateLimitDrop) || !k.Bus().Active(telemetry.TopicTierTraffic) {
		t.Error("controller did not subscribe to its signal topics")
	}
	// One short-lived app thread; the daemon must notice the engine is
	// empty and retire instead of keeping Run alive forever.
	k.NewProcess("test").Spawn("app", 0, func(task *kern.Task) {
		task.P.Sleep(k.P.KswapdPeriod)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine did not drain with a live controller: %v", err)
	}
	if c.Stats.FinalMBps != c.cur {
		t.Errorf("retirement did not record FinalMBps: %g vs %g", c.Stats.FinalMBps, c.cur)
	}
}
