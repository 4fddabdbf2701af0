package mem

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"numamig/internal/model"
	"numamig/internal/topology"
)

func TestAllocFree(t *testing.T) {
	p := NewPhys(topology.Opteron4x4(), false)
	f, err := p.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Node != 1 {
		t.Fatalf("frame node = %d, want 1", f.Node)
	}
	if f.Data != nil {
		t.Fatal("unbacked frame has data")
	}
	if got := p.Stats(1).Allocated; got != 1 {
		t.Fatalf("allocated = %d", got)
	}
	p.Free(f)
	if got := p.Stats(1).Allocated; got != 0 {
		t.Fatalf("allocated after free = %d", got)
	}
	if got := p.Stats(1).Freed; got != 1 {
		t.Fatalf("freed = %d", got)
	}
}

func TestBackedFramesZeroedOnReuse(t *testing.T) {
	p := NewPhys(topology.Opteron4x4(), true)
	f, err := p.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data) != 4096 {
		t.Fatalf("data len = %d", len(f.Data))
	}
	f.Data[123] = 0xAB
	p.Free(f)
	g, err := p.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("frame not recycled from free list")
	}
	if g.Data[123] != 0 {
		t.Fatal("recycled frame not zeroed")
	}
}

func TestOutOfMemory(t *testing.T) {
	m := topology.Grid(2, 1, 3*4096, 1<<20) // 3 frames per node
	p := NewPhys(m, false)
	for i := 0; i < 3; i++ {
		if _, err := p.Alloc(0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	_, err := p.Alloc(0)
	var oom ErrNoMemory
	if !errors.As(err, &oom) || oom.Node != 0 {
		t.Fatalf("err = %v, want ErrNoMemory{0}", err)
	}
	// Other node unaffected.
	if _, err := p.Alloc(1); err != nil {
		t.Fatal(err)
	}
}

func TestUniquePFNs(t *testing.T) {
	p := NewPhys(topology.Opteron4x4(), false)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f, err := p.Alloc(topology.NodeID(i % 4))
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.PFN] {
			t.Fatalf("duplicate PFN %d", f.PFN)
		}
		seen[f.PFN] = true
	}
}

// TestDoubleFreePanics: freeing a frame that is already free panics,
// naming its node and PFN, even while the node holds other frames, and
// so does freeing a free 2 MiB unit; a recycled frame frees normally.
func TestDoubleFreePanics(t *testing.T) {
	p := NewPhys(topology.Opteron4x4(), false)
	f, _ := p.Alloc(2)
	if _, err := p.Alloc(2); err != nil {
		t.Fatal(err)
	}
	pfn := f.PFN
	p.Free(f)
	want := fmt.Sprintf("mem: double free of frame %#x on node 2", pfn)
	if got := panicOf(func() { p.Free(f) }); got != want {
		t.Fatalf("second Free panicked with %v, want %q", got, want)
	}
	if g, _ := p.Alloc(2); g != f || g.PFN != pfn {
		t.Fatalf("Alloc after the free returned PFN %#x, want the recycled frame %#x", g.PFN, pfn)
	}
	if got := p.Stats(2).Allocated; got != 2 {
		t.Fatalf("allocated = %d, want 2", got)
	}
	p.Free(f)

	h, _ := p.Alloc(1)
	if err := p.AllocFootprint(1, model.PTEChunkPages-1); err != nil {
		t.Fatal(err)
	}
	p.FreeHuge(h)
	if got := panicOf(func() { p.FreeHuge(h) }); got == nil {
		t.Fatal("second FreeHuge did not panic")
	}
	if got := p.Stats(1).Allocated; got != 0 {
		t.Fatalf("allocated after the huge unit = %d, want 0", got)
	}
}

// panicOf returns the value fn panics with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestMigrationCounter(t *testing.T) {
	p := NewPhys(topology.Opteron4x4(), false)
	p.NoteMigration(2)
	p.NoteMigration(2)
	if got := p.Stats(2).MigratedIn; got != 2 {
		t.Fatalf("migratedIn = %d", got)
	}
}

// Property: any interleaving of allocs and frees keeps per-node
// accounting consistent, TotalAllocated equal to live frame count, and
// every watermark query consistent with the free-frame count.
func TestAllocFreeAccountingProperty(t *testing.T) {
	wm := Watermarks{Min: 4, Low: 12, High: 20}
	check := func(ops []uint8) bool {
		m := topology.Grid(4, 1, 64*4096, 1<<20)
		p := NewPhys(m, false)
		for n := topology.NodeID(0); n < 4; n++ {
			p.SetWatermarks(n, wm)
		}
		var live []*Frame
		for _, op := range ops {
			node := topology.NodeID(op % 4)
			if op&0x80 != 0 && len(live) > 0 {
				f := live[len(live)-1]
				live = live[:len(live)-1]
				p.Free(f)
			} else if f, err := p.Alloc(node); err == nil {
				live = append(live, f)
			}
			// Watermark queries must agree with live accounting at every
			// step of the interleaving, not just at the end.
			free := p.FreeFrames(node)
			if free != p.Stats(node).Free() {
				return false
			}
			if p.UnderPressure(node) != (free <= wm.Low) {
				return false
			}
			if p.Reclaimed(node) != (free > wm.High) {
				return false
			}
			if p.Headroom(node) != free-wm.Low-1 {
				return false
			}
			if p.UnderPressure(node) && p.Reclaimed(node) {
				return false // Low < High: the states are exclusive
			}
		}
		if p.TotalAllocated() != int64(len(live)) {
			return false
		}
		perNode := map[topology.NodeID]int64{}
		for _, f := range live {
			perNode[f.Node]++
		}
		for n := topology.NodeID(0); n < 4; n++ {
			if p.Stats(n).Allocated != perNode[n] {
				return false
			}
			if p.Stats(n).Free() != 64-perNode[n] {
				return false
			}
			if p.WatermarksOf(n) != wm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetWatermarksValidation(t *testing.T) {
	m := topology.Grid(2, 1, 64*4096, 1<<20)
	p := NewPhys(m, false)
	for _, bad := range []Watermarks{
		{Min: -1, Low: 1, High: 2},
		{Min: 5, Low: 4, High: 6},
		{Min: 1, Low: 8, High: 7},
		{Min: 1, Low: 2, High: 65}, // above total
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWatermarks accepted %+v", bad)
				}
			}()
			p.SetWatermarks(0, bad)
		}()
	}
	p.SetWatermarks(0, Watermarks{Min: 1, Low: 2, High: 3})
	if got := p.WatermarksOf(0); got.High != 3 {
		t.Fatalf("watermarks = %+v", got)
	}
}

// TestHeadroom: the demotion-batch budget tracks free frames against
// the low watermark and goes non-positive exactly when filling one
// more frame would put the node at or below it.
func TestHeadroom(t *testing.T) {
	m := topology.Grid(2, 1, 64*4096, 1<<20)
	p := NewPhys(m, false)
	p.SetWatermarks(0, Watermarks{Min: 2, Low: 10, High: 20})
	if got := p.Headroom(0); got != 64-10-1 {
		t.Fatalf("empty-node headroom = %d, want %d", got, 64-10-1)
	}
	for i := 0; i < 53; i++ {
		if _, err := p.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	// 11 free: taking one more frame leaves exactly the low watermark.
	if got := p.Headroom(0); got != 0 {
		t.Fatalf("headroom at free=low+1 = %d, want 0", got)
	}
	if _, err := p.Alloc(0); err != nil {
		t.Fatal(err)
	}
	if got := p.Headroom(0); got >= 0 {
		t.Fatalf("headroom at the low watermark = %d, want negative", got)
	}
	if !p.UnderPressure(0) {
		t.Fatal("node at its low watermark should report pressure")
	}
}
