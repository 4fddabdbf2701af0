package workload

import (
	"fmt"

	"numamig/internal/cachesim"
	"numamig/internal/core"
	"numamig/internal/kern"
	"numamig/internal/sim"

	numamig "numamig"
)

// BLAS3Policy selects the Figure 8 curve.
type BLAS3Policy int

// Figure 8 policies.
const (
	// B3Static allocates and initializes all matrices on the main
	// thread (first-touch on node 0), the plain-malloc baseline.
	B3Static BLAS3Policy = iota
	// B3KernelNT marks every matrix migrate-on-next-touch before the
	// compute threads start.
	B3KernelNT
	// B3UserNT marks every matrix with the user-space next-touch
	// library.
	B3UserNT
)

func (p BLAS3Policy) String() string {
	switch p {
	case B3Static:
		return "Static Allocation"
	case B3KernelNT:
		return "Next-Touch kernel"
	case B3UserNT:
		return "Next-Touch user-space"
	}
	return "invalid"
}

// BLAS3Config parameterizes a Figure 8 point: independent C = A*B
// multiplications of N x N float matrices, one per core of the
// paper's host.
type BLAS3Config struct {
	N      int
	Policy BLAS3Policy
}

// blas3Phases splits each multiplication into phases so concurrent
// threads share bandwidth realistically over time.
const blas3Phases = 8

// RunBLAS3 executes one Figure 8 point and returns the execution time of
// the slowest thread (the paper reports the time of the concurrent run).
func RunBLAS3(cfg BLAS3Config) (sim.Time, error) {
	if cfg.N <= 0 {
		return 0, fmt.Errorf("workload: bad BLAS3 N=%d", cfg.N)
	}
	sys := numamig.New(numamig.Config{})
	cache := cachesim.NewGroup(sys.Machine.NumNodes(), sys.Machine.Nodes[0].L3Bytes)

	matBytes := int64(cfg.N) * int64(cfg.N) * luElem
	var userNT *core.UserNT
	var kernelNT *core.KernelNT
	switch cfg.Policy {
	case B3UserNT:
		userNT = sys.NewUserNT(true)
	case B3KernelNT:
		kernelNT = sys.NewKernelNT()
	}

	var dur sim.Time
	err := sys.Run(func(master *kern.Task) {
		// Main thread allocates and initializes all matrices:
		// first-touch places everything on node 0.
		bufs := make([][3]*numamig.Buffer, sys.Machine.NumCores())
		for i := range bufs {
			for m := 0; m < 3; m++ {
				b := numamig.MustAlloc(master, matBytes, numamig.FirstTouch())
				if err := b.Prefault(master); err != nil {
					panic(err)
				}
				bufs[i][m] = b
			}
		}
		// Mark per policy.
		for i := range bufs {
			for m := 0; m < 3; m++ {
				switch cfg.Policy {
				case B3KernelNT:
					if _, err := kernelNT.Mark(master, bufs[i][m].Region()); err != nil {
						panic(err)
					}
				case B3UserNT:
					if err := userNT.Mark(master, bufs[i][m].Region()); err != nil {
						panic(err)
					}
				}
			}
		}
		start := master.P.Now()
		sys.TeamAll().Parallel(master, func(t *kern.Task, tid int) {
			blas3Thread(t, sys, cache, bufs[tid], cfg.N)
		})
		dur = master.P.Now() - start
	})
	if err != nil {
		return 0, err
	}
	return dur, nil
}

// blas3Thread models one reference C = A*B multiplication: per phase,
// fault the operands in (running next-touch migrations on first touch),
// then charge compute plus traffic. The traffic volume depends on
// whether the three operands fit the socket's shared L3: resident
// operands cost their footprint once; a thrashing B operand is re-read
// column-strided, costing ~N^3 * 4 bytes (naive row-major DGEMM).
func blas3Thread(t *kern.Task, sys *numamig.System, cache *cachesim.Group, m [3]*numamig.Buffer, n int) {
	nf := float64(n)
	matBytes := int64(n) * int64(n) * luElem
	rects := [3]kern.Rect{}
	for i, b := range m {
		rects[i] = kern.Rect{Base: b.Base, RowBytes: matBytes, Stride: matBytes, Rows: 1}
	}
	// Fault everything in up front (this is where lazy migration runs;
	// the user-space flavour migrates each whole matrix on its first
	// touch).
	for i := range rects {
		if _, err := t.FaultInRect(rects[i], i == 2); err != nil {
			panic(err)
		}
	}
	// Traffic volume: the socket's threads compete for the shared L3.
	// When their collective operand demand fits, only compulsory misses
	// remain; as demand overflows, the column-strided B operand degrades
	// sharply toward one cache-line fill per inner-loop step (~N^3 * 4
	// bytes). The cubic ramp between the regimes is calibrated against
	// the paper's 512 crossover (Fig. 8).
	sock := int(t.Node())
	threadsOnSocket := 0
	for _, c := range sys.Machine.Nodes[sock].Cores {
		_ = c
		threadsOnSocket++
	}
	demand := float64(threadsOnSocket) * 3 * float64(matBytes)
	l3 := float64(sys.Machine.Nodes[sock].L3Bytes)
	compulsory := 3 * float64(matBytes)
	var volume float64
	if demand <= l3 {
		volume = compulsory
	} else {
		ratio := demand / l3
		volume = compulsory * ratio * ratio * ratio
		if max := nf * nf * nf * luElem; volume > max {
			volume = max
		}
	}
	_ = cache
	computePerPhase := sim.FromSeconds(2 * nf * nf * nf / sys.Kernel.P.ComputeRate / blas3Phases)
	for phase := 0; phase < blas3Phases; phase++ {
		t.P.Sleep(computePerPhase)
		for i := range rects {
			share := volume / blas3Phases / 3
			t.TrafficRectVolume(rects[i], share, kern.Blocked, i == 2)
		}
	}
}

// BLAS1Config parameterizes the §4.5 BLAS1 check: independent DAXPY
// streams of N-float vectors, one per core of the paper's host.
type BLAS1Config struct {
	N int // vector length in floats
	// NextTouch migrates vectors to their threads before streaming;
	// false keeps the interleaved static placement.
	NextTouch bool
}

// RunBLAS1 returns the execution time of the concurrent DAXPY sweeps.
// The paper observes migration never helps here: streaming hides remote
// latency, so the balanced interleaved placement is already as good as
// local placement, and migration only adds cost.
func RunBLAS1(cfg BLAS1Config) (sim.Time, error) {
	const repeats = 4 // sweeps over each thread's vectors
	if cfg.N <= 0 {
		return 0, fmt.Errorf("workload: bad BLAS1 N=%d", cfg.N)
	}
	sys := numamig.New(numamig.Config{})
	vecBytes := int64(cfg.N) * luElem
	var kernelNT *core.KernelNT
	if cfg.NextTouch {
		kernelNT = sys.NewKernelNT()
	}
	var dur sim.Time
	err := sys.Run(func(master *kern.Task) {
		nodes := make([]numamig.NodeID, sys.Machine.NumNodes())
		for i := range nodes {
			nodes[i] = numamig.NodeID(i)
		}
		bufs := make([][2]*numamig.Buffer, sys.Machine.NumCores())
		for i := range bufs {
			for v := 0; v < 2; v++ {
				b := numamig.MustAlloc(master, vecBytes, numamig.Interleave(nodes...))
				if err := b.Prefault(master); err != nil {
					panic(err)
				}
				bufs[i][v] = b
				if cfg.NextTouch {
					if _, err := kernelNT.Mark(master, b.Region()); err != nil {
						panic(err)
					}
				}
			}
		}
		start := master.P.Now()
		sys.TeamAll().Parallel(master, func(t *kern.Task, tid int) {
			x, y := bufs[tid][0], bufs[tid][1]
			flops := 2 * float64(cfg.N)
			for rep := 0; rep < repeats; rep++ {
				if err := t.AccessRange(x.Base, x.Size, kern.Stream, false); err != nil {
					panic(err)
				}
				if err := t.AccessRange(y.Base, y.Size, kern.Stream, true); err != nil {
					panic(err)
				}
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
