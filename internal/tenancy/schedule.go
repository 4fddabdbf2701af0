package tenancy

import (
	"math/rand"

	"numamig/internal/sim"
)

// Schedule is the deterministic Poisson-like arrival clock of the
// open-system serve family: exponential inter-arrival gaps drawn from
// a seeded generator and quantized to virtual time, so the same seed
// produces the same arrival instants at any experiment parallelism.
type Schedule struct {
	rng  *rand.Rand
	mean sim.Time
}

// NewSchedule creates a schedule with the given seed and mean
// inter-arrival gap.
func NewSchedule(seed int64, mean sim.Time) *Schedule {
	if mean <= 0 {
		mean = 1
	}
	return &Schedule{rng: rand.New(rand.NewSource(seed)), mean: mean}
}

// Gap draws the next inter-arrival gap: exponentially distributed with
// the schedule's mean, quantized to sim.Time, clamped to [1, 20*mean]
// so one long tail draw cannot stall a cell.
func (s *Schedule) Gap() sim.Time {
	g := sim.Time(float64(s.mean) * s.rng.ExpFloat64())
	if g < 1 {
		g = 1
	}
	if max := 20 * s.mean; g > max {
		g = max
	}
	return g
}
