package sim

import (
	"math/rand"
	"testing"
)

// Property: the event queue drains in strict (time, schedule-sequence)
// order — absolute times nondecreasing, and FIFO among events scheduled
// for the same instant — including events scheduled mid-drain for the
// instant currently draining (they join the same-instant FIFO and run
// this instant, after everything already pending there) and across
// drain-and-refill waves. The drain loop below is exactly what
// Engine.dispatch does, minus the token handoff.
func TestBucketQueueOrderProperty(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rng := rand.New(rand.NewSource(200 + trial))
		e := NewEngine(1)

		type stamp struct {
			at  Time // absolute target time
			seq int  // global scheduling sequence
		}
		var drained []stamp
		seq := 0
		var add func(at Time)
		add = func(at Time) {
			s := stamp{at: at, seq: seq}
			seq++
			e.schedule(at, nil, func() {
				drained = append(drained, s)
				// Mid-drain scheduling: sometimes add an event for the
				// very instant being drained and one for a later time.
				if s.seq < 3000 && rng.Intn(4) == 0 {
					add(e.now)
					add(e.now + Time(1+rng.Intn(30)))
				}
			})
		}

		// Several waves so the queue fully drains and refills.
		total := 0
		for wave := 0; wave < 5; wave++ {
			for i := 0; i < 200; i++ {
				add(e.now + Time(rng.Intn(25)))
			}
			for {
				ev, ok := e.next()
				if !ok {
					break
				}
				e.nsteps++
				ev.fn()
			}
			total = len(drained)
		}
		if total != seq {
			t.Fatalf("trial %d: drained %d events, scheduled %d", trial, total, seq)
		}
		for i := 1; i < len(drained); i++ {
			prev, cur := drained[i-1], drained[i]
			if cur.at < prev.at {
				// Every event is scheduled at e.now+delta with e.now
				// monotonic, so absolute targets must drain in
				// nondecreasing order even across waves.
				t.Fatalf("trial %d: drain %d went back in time: %d after %d (seq %d after %d)",
					trial, i, cur.at, prev.at, cur.seq, prev.seq)
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				t.Fatalf("trial %d: drain %d broke FIFO at t=%d: seq %d after %d",
					trial, i, cur.at, cur.seq, prev.seq)
			}
		}
	}
}
