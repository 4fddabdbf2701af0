// Package control hosts in-sim closed-loop policy daemons: simulated
// kernel threads that subscribe to the telemetry bus and steer tunables
// online, so static and adaptive policies compare as grid axes of the
// same scenario families.
//
// The first controller adapts the slow-tier promotion rate limit
// (model.Params.PromoteRateLimitMBps). The static limiter trades
// promotion bandwidth against slow-tier residency: too tight and hot
// pages linger on the slow tier (drops pile up), too loose and
// promotion traffic steals memory bandwidth from the application. The
// controller walks that trade-off online with an AIMD-style rule over
// two bus signals per period:
//
//   - RateLimitDrop events mean the bucket is turning away promotions
//     the balancer asked for — the limit is the bottleneck — so the
//     controller widens it (multiplicative increase, doubling toward
//     maxMBps);
//   - a run of decayAfterIdle consecutive periods with no drops and no
//     upward tier traffic means nothing wants promoting at the current
//     limit — so the controller decays it (halving toward minMBps),
//     reclaiming the headroom. Requiring a run, not a single period,
//     keeps bursty demand (hint-fault batches arrive on scan periods,
//     not continuously) from cancelling every widen one period later;
//   - a period with promotions but no drops is steady state: hold.
//
// The control period is 2 x Params.KswapdPeriod, so the controller
// reacts one octave slower than the daemons that generate its signals.
// Starting from minMBps, the controller only ever holds bandwidth the
// workload demonstrably asked for, so its slow-tier residency meets or
// beats every static positive limit while keeping the cap that an
// uncapped (limit-off) configuration gives up.
package control

import (
	"numamig/internal/kern"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
)

const (
	// minMBps floors the limit and is its starting value. It must stay
	// positive: at limit <= 0 the kernel bypasses the token bucket
	// entirely and the controller would go signal-blind.
	minMBps = 1
	// maxMBps caps the limit.
	maxMBps = 1024
	// decayAfterIdle is how many consecutive signal-free periods must
	// pass before one decay step.
	decayAfterIdle = 4
)

// Stats summarises one controller's run.
type Stats struct {
	Ticks     int     // control periods evaluated
	Widens    int     // multiplicative increases taken
	Narrows   int     // decays taken
	Drops     uint64  // RateLimitDrop events observed
	PeakMBps  float64 // widest limit reached
	FinalMBps float64 // limit at retirement
}

// Controller is one running adaptive rate-limit daemon.
type Controller struct {
	k   *kern.Kernel
	cur float64

	drops   uint64 // RateLimitDrop events since the last tick
	upPages uint64 // promotion-direction TierTraffic ops since the last tick
	idle    int    // consecutive signal-free periods

	Stats Stats
}

// EnableAdaptiveRateLimit subscribes a controller to k's telemetry bus
// and spawns its daemon on k's engine. Call before Engine.Run, after
// the kernel exists; the daemon retires itself once every application
// thread has exited, so the engine drains normally. The controller
// owns Params.PromoteRateLimitMBps from the first tick on.
func EnableAdaptiveRateLimit(k *kern.Kernel) *Controller {
	c := &Controller{k: k, cur: minMBps}
	k.P.PromoteRateLimitMBps = c.cur
	bus := k.Bus()
	bus.Subscribe(telemetry.TopicRateLimitDrop, func(ev telemetry.Event) {
		c.drops += uint64(ev.Pages)
	})
	bus.Subscribe(telemetry.TopicTierTraffic, func(ev telemetry.Event) {
		if ev.Value < 0 { // promotion direction
			c.upPages += uint64(ev.Pages)
		}
	})
	k.Eng.Spawn("rlctrl", c.daemon)
	return c
}

// daemon is the control loop: one AIMD decision per period.
func (c *Controller) daemon(p *sim.Proc) {
	period := 2 * c.k.P.KswapdPeriod
	for {
		p.Sleep(period)
		if c.k.LiveThreads() == 0 {
			c.Stats.FinalMBps = c.cur
			return
		}
		c.tick()
	}
}

// tick evaluates one control period over the signals accumulated since
// the last one.
func (c *Controller) tick() {
	drops, up := c.drops, c.upPages
	c.drops, c.upPages = 0, 0
	c.Stats.Ticks++
	c.Stats.Drops += drops
	switch {
	case drops > 0:
		// The bucket is the bottleneck: widen.
		c.cur *= 2
		if c.cur > maxMBps {
			c.cur = maxMBps
		}
		c.Stats.Widens++
		c.idle = 0
	case up == 0:
		// No demand this period. Decay only after a run of them, so a
		// bursty promoter (hint faults arrive on scan periods) does not
		// lose its widened limit between batches.
		if c.idle++; c.idle >= decayAfterIdle {
			c.cur /= 2
			if c.cur < minMBps {
				c.cur = minMBps
			}
			c.Stats.Narrows++
			c.idle = 0
		}
	default:
		// Promotions flowed and nothing was dropped: steady state.
		c.idle = 0
	}
	if c.cur > c.Stats.PeakMBps {
		c.Stats.PeakMBps = c.cur
	}
	// The kernel's token bucket reads Params.PromoteRateLimitMBps on
	// every AllowSlowPromotion call, so the new limit takes effect
	// immediately.
	c.k.P.PromoteRateLimitMBps = c.cur
	c.Stats.FinalMBps = c.cur
}
