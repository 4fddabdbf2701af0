package workload

import (
	"fmt"

	"numamig/internal/kern"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"

	numamig "numamig"
)

// Extension studies: the future-work items of the paper's §6, plus a
// placement-policy study used by the documentation. These are ablations
// beyond the paper's evaluation; EXPERIMENTS.md discusses them
// separately from the reproduced figures.

// HugePageMigration compares migrating `mb` megabytes node0 -> node1 as
// 4 KiB pages (patched move_pages) versus as 2 MiB huge pages. Returns
// (smallMBps, hugeMBps).
func HugePageMigration(mb int) (float64, float64, error) {
	bytes := int64(mb) << 20
	small := func() (sim.Time, error) {
		sys := numamig.New(numamig.Config{})
		var d sim.Time
		err := sys.RunOn(4, func(t *numamig.Task) {
			buf := numamig.MustAlloc(t, bytes, numamig.Bind(0))
			if err := buf.Prefault(t); err != nil {
				panic(err)
			}
			start := t.P.Now()
			if err := buf.MoveTo(t, 1, true); err != nil {
				panic(err)
			}
			d = t.P.Now() - start
		})
		return d, err
	}
	huge := func() (sim.Time, error) {
		sys := numamig.New(numamig.Config{})
		var d sim.Time
		err := sys.RunOn(4, func(t *numamig.Task) {
			a, err := t.MmapHuge(bytes, vm.Bind(0), "huge")
			if err != nil {
				panic(err)
			}
			if _, err := t.TouchHuge(a, bytes); err != nil {
				panic(err)
			}
			start := t.P.Now()
			if _, _, err := t.MoveHugeRange(a, bytes, 1); err != nil {
				panic(err)
			}
			d = t.P.Now() - start
		})
		return d, err
	}
	ds, err := small()
	if err != nil {
		return 0, 0, err
	}
	dh, err := huge()
	if err != nil {
		return 0, 0, err
	}
	return MBps(bytes, ds), MBps(bytes, dh), nil
}

// ReplicationStudy measures 16 threads repeatedly reading one hot
// read-mostly buffer that lives on node 0, with and without read-only
// replication. Returns (staticTime, replicatedTime) including the
// replication setup cost.
func ReplicationStudy(mb, sweeps int) (sim.Time, sim.Time, error) {
	bytes := int64(mb) << 20
	run := func(replicate bool) (sim.Time, error) {
		sys := numamig.New(numamig.Config{})
		ready := sim.NewEvent(sys.Eng)
		var a vm.Addr
		var start, last sim.Time
		sys.Proc.Spawn("setup", 0, func(t *kern.Task) {
			start = t.P.Now()
			var err error
			a, err = t.Mmap(bytes, vm.ProtRW, vm.Bind(0), 0, "hot")
			if err != nil {
				panic(err)
			}
			if _, err := t.FaultIn(a, bytes, true); err != nil {
				panic(err)
			}
			if replicate {
				if _, err := t.ReplicateRange(a, bytes); err != nil {
					panic(err)
				}
			}
			ready.Fire()
		})
		for c := 0; c < sys.Machine.NumCores(); c++ {
			sys.Proc.Spawn(fmt.Sprintf("r%d", c), topology.CoreID(c), func(t *kern.Task) {
				ready.Wait(t.P)
				for s := 0; s < sweeps; s++ {
					if err := t.AccessRange(a, bytes, kern.Blocked, false); err != nil {
						panic(err)
					}
				}
				if t.P.Now() > last {
					last = t.P.Now()
				}
			})
		}
		if err := sys.Eng.Run(); err != nil {
			return 0, err
		}
		return last - start, nil
	}
	st, err := run(false)
	if err != nil {
		return 0, 0, err
	}
	rp, err := run(true)
	if err != nil {
		return 0, 0, err
	}
	return st, rp, nil
}

// PolicyKind selects a placement for the policy study.
type PolicyKind int

// Policy study placements.
const (
	PolFirstTouchLocal PolicyKind = iota // each thread first-touches its slice
	PolNode0                             // everything on node 0
	PolInterleaved                       // round-robin over nodes
	PolNextTouchFix                      // node 0, then next-touch repair
)

func (p PolicyKind) String() string {
	switch p {
	case PolFirstTouchLocal:
		return "first-touch (local)"
	case PolNode0:
		return "all on node 0"
	case PolInterleaved:
		return "interleaved"
	case PolNextTouchFix:
		return "node 0 + next-touch"
	}
	return "invalid"
}

// PolicyStudy runs `sweeps` STREAM-triad-like passes (a[i] = b[i] +
// s*c[i]) with 16 threads over per-thread slices placed by the given
// policy, and returns the total execution time. It quantifies how much
// placement matters for a bandwidth-bound kernel and how next-touch
// recovers first-touch quality from a bad initial placement once the
// one-time migration has amortized.
func PolicyStudy(mbPerThread, sweeps int, pol PolicyKind) (sim.Time, error) {
	if sweeps <= 0 {
		sweeps = 1
	}
	sys := numamig.New(numamig.Config{})
	threads := sys.Machine.NumCores()
	sliceBytes := int64(mbPerThread) << 20
	var dur sim.Time
	err := sys.Run(func(master *kern.Task) {
		var alloc vm.Policy
		switch pol {
		case PolInterleaved:
			alloc = vm.Interleave(0, 1, 2, 3)
		case PolNode0, PolNextTouchFix:
			alloc = vm.Bind(0)
		default:
			alloc = vm.DefaultPolicy()
		}
		team := sys.TeamAll()
		bufs := make([][3]*numamig.Buffer, threads)
		if pol == PolFirstTouchLocal {
			// Each thread first-touches its own vectors.
			team.Parallel(master, func(t *kern.Task, tid int) {
				for v := 0; v < 3; v++ {
					b := numamig.MustAlloc(t, sliceBytes, alloc)
					if err := b.Prefault(t); err != nil {
						panic(err)
					}
					bufs[tid][v] = b
				}
			})
		} else {
			for tid := 0; tid < threads; tid++ {
				for v := 0; v < 3; v++ {
					b := numamig.MustAlloc(master, sliceBytes, alloc)
					if err := b.Prefault(master); err != nil {
						panic(err)
					}
					bufs[tid][v] = b
				}
			}
			if pol == PolNextTouchFix {
				nt := sys.NewKernelNT()
				for tid := 0; tid < threads; tid++ {
					for v := 0; v < 3; v++ {
						if _, err := nt.Mark(master, bufs[tid][v].Region()); err != nil {
							panic(err)
						}
					}
				}
			}
		}
		start := master.P.Now()
		team.Parallel(master, func(t *kern.Task, tid int) {
			for s := 0; s < sweeps; s++ {
				// Triad: read b, c; write a.
				for v := 2; v >= 0; v-- {
					if err := t.AccessRange(bufs[tid][v].Base, sliceBytes, kern.Stream, v == 0); err != nil {
						panic(err)
					}
				}
				flops := 2 * float64(sliceBytes) / 4
				t.P.Sleep(sim.FromSeconds(flops / sys.Kernel.P.ComputeRate))
			}
		})
		dur = master.P.Now() - start
	})
	if err != nil {
		return 0, err
	}
	return dur, nil
}
