package kern

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// walkRegion is the address-space layout every FuzzRectWalk case runs
// over, in bytes from the (chunk-aligned) first mapping:
//
//	[0, 4M)       RW, 4-node interleave    compact / dense / missing chunks
//	[4M, 6M)      unmapped, huge chunk     a hole with a huge-mapped chunk
//	[6M, 8M)      RW, 4-node interleave
//	[8M, 8M+4K)   guard page
//	[8M+4K, +4M)  RW, bound to one node
//	guard page, then 2M read-only          write walks take SIGSEGV here
const walkRegionBytes = 15 << 20

// pteState is the comparable part of a PTE.
type pteState struct {
	flags, age uint8
	promoGen   uint32
	node       topology.NodeID
	pfn        uint64
}

// walkResult is everything the span walk and the per-page reference
// must agree on.
type walkResult struct {
	Pages              []vm.VPN
	Serviced           int
	Err                string
	Nodes              map[topology.NodeID]int
	Absent             int
	Order              []topology.NodeID
	Counts             map[topology.NodeID]int
	FaultNs, TrafficNs sim.Time
	PTEs               []pteState
	Before, Stats      Stats // kernel counters before the rect calls and at the end
}

// buildWalkTable maps walkRegion and populates it from rng: prefaulted
// runs from several cores, next-touch marks, stale protections, NUMA
// hints, chunks flattened by a one-page rewrite (interleaved chunks
// faulted past the run threshold flatten on their own) and a huge chunk
// in the hole. It returns the region base.
func buildWalkTable(t testing.TB, tk *Task, rng *rand.Rand) vm.Addr {
	const mib = 1 << 20
	sp := tk.Proc.Space
	a, _ := tk.Mmap(8*mib, vm.ProtRW, vm.Interleave(0, 1, 2, 3), 0, "a")
	if err := tk.Munmap(a+4*mib, 2*mib); err != nil {
		t.Fatal(err)
	}
	b, _ := tk.Mmap(4*mib, vm.ProtRW, vm.Bind(topology.NodeID(rng.Intn(4))), 0, "b")
	c, _ := tk.Mmap(2*mib, vm.ProtRead, vm.DefaultPolicy(), 0, "c")
	sp.PT.ChunkOrCreate(vm.PageOf(a + 4*mib)).Huge = true

	mapped := [][2]vm.Addr{{a, a + 4*mib}, {a + 6*mib, a + 8*mib}, {b, b + 4*mib}, {c, c + 2*mib}}
	subrange := func() (vm.Addr, int64) {
		m := mapped[rng.Intn(len(mapped))]
		pages := int64(m[1]-m[0]) / pg
		off := rng.Int63n(pages)
		n := 1 + rng.Int63n(min(pages-off, 700))
		return m[0] + vm.Addr(off*pg), n * pg
	}
	for i := 2 + rng.Intn(10); i > 0; i-- {
		tk.MigrateTo(topology.CoreID(rng.Intn(16)))
		s, n := subrange()
		if _, err := tk.FaultIn(s, n, s < c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1 + rng.Intn(8); i > 0; i-- {
		s, n := subrange()
		switch rng.Intn(4) {
		case 0:
			if _, err := tk.Madvise(s, n, AdvMigrateOnNextTouch); err != nil {
				t.Fatal(err)
			}
		case 1: // present but stale for writes, VMA still RW
			sp.PT.SetFlagsRange(vm.PageOf(s), vm.PageOf(s)+vm.VPN(n/pg), vm.ProtRead.Flags(), vm.PTERead|vm.PTEWrite)
		case 2:
			sp.PT.ArmRange(vm.PageOf(s), vm.PageOf(s)+vm.VPN(n/pg), nil)
		case 3: // age one page: flattens its chunk when the page sits inside a run
			v := vm.PageOf(s)
			if pte := sp.PT.Get(v); pte.Present() {
				pte.Age++
				sp.PT.Install(v, pte)
			}
		}
	}
	tk.MigrateTo(topology.CoreID(rng.Intn(16)))
	return a
}

// runRectWalk builds the seeded table on a fresh kernel and runs the
// rect paths over rel, whose Base is an offset into the table — the span
// walk, or the per-page reference when ref is set — recording what the
// two must agree on.
func runRectWalk(t *testing.T, seed int64, rel Rect, write, ref, handler bool) walkResult {
	h := newHarness(false)
	if handler {
		// Repairs one page per signal, so rects over more than 16
		// read-only pages hit the did-not-settle path.
		h.proc.OnSegv(func(tk *Task, info SigInfo) {
			if v := tk.Proc.Space.Find(info.Addr); v != nil {
				if err := tk.Mprotect(vm.PageFloor(info.Addr), pg, vm.ProtRW); err != nil {
					t.Error(err)
				}
			}
		})
	}
	var res walkResult
	h.run(t, 0, func(tk *Task) {
		base := buildWalkTable(t, tk, rand.New(rand.NewSource(seed)))
		rect := rel
		rect.Base += base
		res.Before = h.k.Stats
		t0 := tk.P.Now()
		var err error
		if ref {
			res.Pages = rect.pages()
			res.Serviced, err = refFaultInRect(tk, rect, write)
		} else {
			res.Pages = spanPages(t, rect)
			res.Serviced, err = tk.FaultInRect(rect, write)
		}
		if err != nil {
			res.Err = err.Error()
		}
		t1 := tk.P.Now()
		const volume = 3 << 20
		if ref {
			res.Nodes, res.Absent, _ = refNodesOfRect(tk, rect)
			res.Order, res.Counts = refTrafficRectVolume(tk, rect, volume, Blocked)
		} else {
			res.Nodes, res.Absent = tk.NodesOfRect(rect)
			tk.TrafficRectVolume(rect, volume, Blocked, write)
			res.Order = append([]topology.NodeID(nil), tk.scratch.nodeOrder...)
			res.Counts = map[topology.NodeID]int{}
			for _, n := range res.Order {
				res.Counts[n] = tk.scratch.nodeCount[n]
			}
		}
		res.FaultNs, res.TrafficNs = t1-t0, tk.P.Now()-t1
		for v := vm.PageOf(base); v < vm.PageOf(base+walkRegionBytes); v++ {
			e := tk.Proc.Space.PT.Get(v)
			s := pteState{flags: e.Flags, age: e.Age, promoGen: e.PromoGen, node: -1}
			if e.Frame != nil {
				s.node, s.pfn = e.Frame.Node, e.Frame.PFN
			}
			res.PTEs = append(res.PTEs, s)
		}
	})
	res.Stats = h.k.Stats
	return res
}

// checkRectWalk runs the span walk and the per-page reference over rel
// (Base an offset into the seeded table) and fails on any difference.
func checkRectWalk(t *testing.T, seed int64, rel Rect, write, handler bool) walkResult {
	t.Helper()
	got := runRectWalk(t, seed, rel, write, false, handler)
	want := runRectWalk(t, seed, rel, write, true, handler)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d rect %+v write=%v handler=%v: span walk and per-page reference disagree\n%s",
			seed, rel, write, handler, walkDiff(got, want))
	}
	return got
}

// walkDiff names the fields on which two walk results differ.
func walkDiff(got, want walkResult) string {
	out := ""
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "PTEs" {
			for j := range got.PTEs {
				if j < len(want.PTEs) && got.PTEs[j] != want.PTEs[j] {
					out += fmt.Sprintf("pte #%d: %+v vs %+v\n", j, got.PTEs[j], want.PTEs[j])
					break
				}
			}
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			out += fmt.Sprintf("%s: %v vs %v\n", name, g, w)
		}
	}
	return out
}

// FuzzRectWalk drives randomized rectangles — zero, overlapping,
// page-crossing, chunk-crossing and negative strides, unaligned bases,
// rows across VMA holes — over tables mixing compact, dense, missing and
// huge chunks, and checks the span walk against the per-page reference:
// page set and order, NodesOfRect, TrafficRectVolume's per-node charges
// and virtual time, and FaultInRect's serviced count, error, virtual
// time, counters and final PTE state.
func FuzzRectWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, off uint32, rowBytes uint32, stride int32, rows uint8, write, handler bool) {
		rel := Rect{
			Base:     vm.Addr(off % walkRegionBytes),
			RowBytes: int64(rowBytes % (96 << 10)),
			Stride:   int64(stride % (1 << 20)),
			Rows:     int(rows),
		}
		checkRectWalk(t, seed, rel, write, handler)
	})
}

// TestRectWalkDifferential runs the FuzzRectWalk property over a fixed
// set of randomized shapes, so plain `go test` covers far more than the
// seed corpus, and checks that the shapes reach every fault class.
func TestRectWalkDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 200
	if testing.Short() {
		n = 30
	}
	var demand, nextTouch, hint, stale, segv, unsettled bool
	for i := 0; i < n; i++ {
		seed := rng.Int63()
		rel := Rect{
			Base:     vm.Addr(rng.Int63n(walkRegionBytes)),
			RowBytes: []int64{0, 1, 100, 2048, pg, pg + 1, 3 * pg, 70 << 10}[rng.Intn(8)],
			Stride:   []int64{0, 512, 2048, pg, 8192, 32 << 10, 1 << 20, int64(model.PTEChunkPages*pg) + 4096}[rng.Intn(8)],
			Rows:     rng.Intn(80),
		}
		if rng.Intn(3) == 0 {
			rel.Stride = -rel.Stride
		}
		got := checkRectWalk(t, seed, rel, rng.Intn(3) > 0, rng.Intn(2) == 0)
		b, e := got.Before, got.Stats
		demand = demand || e.DemandAllocs > b.DemandAllocs
		nextTouch = nextTouch || e.NTMigrations+e.NTLocalSkips > b.NTMigrations+b.NTLocalSkips
		hint = hint || e.NumaHintFaults > b.NumaHintFaults
		stale = stale || e.MinorFaults > b.MinorFaults
		segv = segv || strings.Contains(got.Err, "segmentation fault")
		unsettled = unsettled || strings.Contains(got.Err, "FaultInRect") && strings.Contains(got.Err, "did not settle")
	}
	if !(demand && nextTouch && hint && stale && segv && unsettled) {
		t.Fatalf("shapes missed a fault class: demand=%v next-touch=%v hint=%v stale=%v segv=%v unsettled=%v",
			demand, nextTouch, hint, stale, segv, unsettled)
	}
}
