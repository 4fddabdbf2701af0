// Quickstart: allocate memory on one NUMA node, mark it
// Migrate-on-next-touch, move the thread, and watch the pages it
// touches follow it while the pages it leaves alone stay put.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"numamig"
)

func main() {
	sys := numamig.New(numamig.Config{}) // the paper's 4x4 Opteron host

	err := sys.Run(func(t *numamig.Task) {
		// 16 MB buffer, first-touched on node 0 (we start on core 0).
		buf := numamig.MustAlloc(t, 16<<20, numamig.FirstTouch())
		if err := buf.Prefault(t); err != nil {
			panic(err)
		}
		hist, _ := buf.NodeHistogram(t)
		fmt.Printf("t=%-9v allocated:   pages by node %v\n", t.P.Now(), hist)

		// Mark migrate-on-next-touch (one madvise call).
		nt := sys.NewKernelNT()
		if _, err := nt.Mark(t, buf.Region()); err != nil {
			panic(err)
		}

		// The scheduler moves us to node 2; no data was copied yet.
		t.MigrateTo(8)
		fmt.Printf("t=%-9v thread now on core %d (node %d); nothing migrated yet\n",
			t.P.Now(), t.Core, t.Node())

		// First touch pulls each page to the local node, page by page,
		// inside the page-fault handler. Touch only the first half.
		half := buf.Size / 2
		start := t.P.Now()
		if err := t.AccessRange(buf.Base, half, numamig.Stream, false); err != nil {
			panic(err)
		}
		d := t.P.Now() - start
		hist, _ = buf.NodeHistogram(t)
		fmt.Printf("t=%-9v after touch: pages by node %v\n", t.P.Now(), hist)
		fmt.Printf("lazy migration moved %.0f MB at %.0f MB/s (simulated)\n",
			float64(half)/1e6, float64(half)/d.Seconds()/1e6)

		// Migration is lazy: the untouched half never moved.
		fmt.Printf("the untouched half (%d pages) is still on node 0\n", hist[0])
	})
	if err != nil {
		panic(err)
	}
	st := sys.Stats()
	fmt.Printf("kernel: %d faults, %d next-touch migrations, %d TLB shootdowns\n",
		st.Faults, st.NTMigrations, st.TLBShootdowns)
}
