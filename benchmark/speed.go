package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its effective speed drifts
// by tens of percent over minutes as neighbours load it, and the drift
// dominates run-to-run differences of every host time. So each run also
// times a fixed reference loop, built from the standard library only,
// in a block before its set-ups, between set-ups and passes, and in a
// block after its timed phase, and the end-to-end times are reported
// scaled to the speed at which the reference loop takes refNominal:
// host seconds at reference speed. Loops interleaved with the passes
// track the drift far better than blocks alone (README.md gives the
// numbers), though they slow the pass after them by about a tenth,
// alike for every commit. Two runs on a machine that slowed down between
// them then agree, while a change to the simulator moves them. The loop
// does what the simulator's hot paths do (allocation and garbage
// collection, map operations, pointer chasing, sorting, goroutine
// handoffs) and calls nothing of the repository, so no change to the
// repository changes it.

// refNominal is the reference loop's duration at reference speed: about
// its median on the 2-core Intel Xeon virtual machine (Go 1.24) whose
// runs README.md records.
const refNominal = 70 * time.Millisecond

// refBlock is how many reference loops one block times; refEvery is the
// least time between two interleaved ones.
const (
	refBlock = 10
	refEvery = 250 * time.Millisecond
)

// speedRef collects a run's reference-loop samples.
type speedRef struct {
	interleave bool // sample between set-ups and passes too
	samples    []float64
	last       time.Time
}

// sample times one reference loop, after a collection so that garbage
// left by the workload is not charged to it.
func (s *speedRef) sample() {
	runtime.GC()
	start := time.Now()
	refLoop()
	s.samples = append(s.samples, time.Since(start).Seconds())
	s.last = time.Now()
}

// block times refBlock reference loops.
func (s *speedRef) block() {
	for i := 0; i < refBlock; i++ {
		s.sample()
	}
}

// maybeSample samples when interleaving and refEvery has passed since
// the last sample.
func (s *speedRef) maybeSample() {
	if s.interleave && time.Since(s.last) >= refEvery {
		s.sample()
	}
}

// scale is the factor that converts this run's host seconds to
// seconds at reference speed.
func (s *speedRef) scale() float64 {
	return refNominal.Seconds() / median(s.samples)
}

type refNode struct {
	next *refNode
	key  int
}

// refLoop is the reference loop: a fixed amount of work that exercises
// the allocator, the collector, maps, pointer chasing, sorting and
// goroutine handoffs.
func refLoop() {
	for round := 0; round < 4; round++ {
		m := map[int]*refNode{}
		var head *refNode
		for i := 0; i < 50000; i++ {
			n := &refNode{next: head, key: i * 7919 % 100003}
			head = n
			m[n.key] = n
		}
		keys := make([]int, 0, len(m))
		for k, n := range m {
			keys = append(keys, k+n.key)
		}
		sort.Ints(keys)
		sink += keys[len(keys)/2]
		for n := head; n != nil; n = n.next {
			sink += n.key & 1
		}
		ch := make(chan int)
		done := make(chan int)
		go func() {
			sum := 0
			for v := range ch {
				sum += v
			}
			done <- sum
		}()
		for i := 0; i < 20000; i++ {
			ch <- i
		}
		close(ch)
		sink += <-done
	}
}
