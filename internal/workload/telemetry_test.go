package workload

import (
	"testing"

	numamig "numamig"
	"numamig/internal/telemetry"
)

// busCounters accumulates the bus stream into the same shape as the
// kernel and migration-engine counters, entirely independently of the
// Stats fields the code under test increments.
type busCounters struct {
	faults      uint64 // PageFault pages
	hintFaults  uint64 // NumaHintFault pages
	promoted    uint64 // Promote pages
	demoted     uint64 // Demote pages
	rateLimited uint64 // RateLimitDrop pages
	tierDown    uint64 // TierTraffic ops, demotion direction
	tierUp      uint64 // TierTraffic ops, promotion direction
}

func (c *busCounters) observe(ev telemetry.Event) {
	switch ev.Topic {
	case telemetry.TopicPageFault:
		c.faults += uint64(ev.Pages)
	case telemetry.TopicNumaHintFault:
		c.hintFaults += uint64(ev.Pages)
	case telemetry.TopicPromote:
		c.promoted += uint64(ev.Pages)
	case telemetry.TopicDemote:
		c.demoted += uint64(ev.Pages)
	case telemetry.TopicRateLimitDrop:
		c.rateLimited += uint64(ev.Pages)
	case telemetry.TopicTierTraffic:
		if ev.Value > 0 {
			c.tierDown += uint64(ev.Pages)
		} else {
			c.tierUp += uint64(ev.Pages)
		}
	}
}

// observeRuns installs a system observer that attaches fresh counters
// to every System a workload builds, returning the collected pairs.
// Restore clears the observer; tests must call it before returning.
func observeRuns(t *testing.T) (get func() []*observedRun, restore func()) {
	t.Helper()
	var runs []*observedRun
	numamig.SetSystemObserver(func(sys *numamig.System) {
		r := &observedRun{sys: sys, bus: &busCounters{}}
		sys.Bus().SubscribeAll(r.bus.observe)
		runs = append(runs, r)
	})
	return func() []*observedRun { return runs },
		func() { numamig.SetSystemObserver(nil) }
}

type observedRun struct {
	sys *numamig.System
	bus *busCounters
}

// check compares every bus-derived counter against the authoritative
// kernel / migration-engine counters, exactly.
func (r *observedRun) check(t *testing.T, label string) {
	t.Helper()
	st := r.sys.Stats()
	mig := r.sys.Migrator(numamig.Patched)
	cmp := []struct {
		name      string
		bus, auth uint64
	}{
		{"Faults", r.bus.faults, st.Faults},
		{"NumaHintFaults", r.bus.hintFaults, st.NumaHintFaults},
		{"NumaPagesPromoted", r.bus.promoted, st.NumaPagesPromoted},
		{"PagesDemoted", r.bus.demoted, st.PagesDemoted},
		{"PromoteRateLimited", r.bus.rateLimited, st.PromoteRateLimited},
		{"PagesTierDown", r.bus.tierDown, mig.Stats.PagesTierDown},
		{"PagesTierUp", r.bus.tierUp, mig.Stats.PagesTierUp},
	}
	for _, c := range cmp {
		if c.bus != c.auth {
			t.Errorf("%s: bus-derived %s = %d, counter says %d", label, c.name, c.bus, c.auth)
		}
	}
	if st.Faults == 0 {
		t.Errorf("%s: run took no faults — differential test exercised nothing", label)
	}
}

// TestTelemetryMatchesCountersTiering derives the kernel counters a
// second way — from the telemetry stream — and requires exact equality
// on the tiering workload. A missed or double-published event at any
// emitter breaks this.
func TestTelemetryMatchesCountersTiering(t *testing.T) {
	get, restore := observeRuns(t)
	defer restore()
	_, err := Tiering(TieringConfig{
		NodePages: 512, Hysteresis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := get()
	if len(runs) != 1 {
		t.Fatalf("observed %d systems, want 1", len(runs))
	}
	runs[0].check(t, "tiering")
	if runs[0].bus.demoted == 0 {
		t.Error("tiering run demoted nothing — the Demote topic went unexercised")
	}
}

// TestTelemetryMatchesCountersTiered does the same over the explicit
// slow-tier workload, with the rate limiter on so RateLimitDrop and
// both TierTraffic directions carry traffic.
func TestTelemetryMatchesCountersTiered(t *testing.T) {
	get, restore := observeRuns(t)
	defer restore()
	r, err := Tiered(TieredConfig{
		FastNodes: 2, SlowNodes: 1, NodePages: 512, SlowRatio: 1,
		RateLimitMBps: 1, Hysteresis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := get()
	if len(runs) != 1 {
		t.Fatalf("observed %d systems, want 1", len(runs))
	}
	runs[0].check(t, "tiered")
	b := runs[0].bus
	if b.rateLimited == 0 || b.tierUp == 0 || b.tierDown == 0 {
		t.Errorf("tiered run left a tier topic unexercised: drops %d up %d down %d",
			b.rateLimited, b.tierUp, b.tierDown)
	}
	if r.RateLimited != b.rateLimited {
		t.Errorf("workload-reported RateLimited %d != bus %d", r.RateLimited, b.rateLimited)
	}
}
