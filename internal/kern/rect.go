package kern

import (
	"fmt"

	"numamig/internal/model"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Rect describes a strided 2D region of the address space, e.g. one
// matrix block inside a row-major matrix: Rows row segments of RowBytes
// bytes, consecutive segments Stride bytes apart. Stride may be zero
// (every row the same) or negative (rows descending from Base); the
// pages covered are the same as those of the ascending twin
// {Base + (Rows-1)*Stride, RowBytes, -Stride, Rows}. The blocked-
// application drivers use Rect to fault and access whole blocks with
// aggregate DES costs (equivalent per-page charges, far fewer events).
type Rect struct {
	Base     vm.Addr
	RowBytes int64
	Stride   int64
	Rows     int
}

// Bytes returns the total payload bytes of the rectangle.
func (r Rect) Bytes() int64 { return r.RowBytes * int64(r.Rows) }

// empty reports whether the rectangle covers no page.
func (r Rect) empty() bool { return r.RowBytes <= 0 || r.Rows <= 0 }

// spans returns an iterator over the rectangle's pages as ascending,
// disjoint, maximal spans: rows that overlap or abut merge into one
// span, so a contiguous rectangle is a single span and an LU block is
// one span per row.
func (r Rect) spans() rectSpans {
	if r.empty() {
		return rectSpans{}
	}
	if r.Stride < 0 {
		r.Base += vm.Addr(int64(r.Rows-1) * r.Stride)
		r.Stride = -r.Stride
	}
	return rectSpans{r: r}
}

// rectSpans iterates a rectangle's page spans without building a page
// list. The pending span [lo, hi) is held back until a later row fails
// to extend it; an iterator with no rows and a pending span yields just
// that span (FaultIn's single range).
type rectSpans struct {
	r      Rect // Stride >= 0
	row    int
	lo, hi vm.VPN
}

// next returns the next span, or ok == false once the rectangle is
// exhausted.
func (s *rectSpans) next() (lo, hi vm.VPN, ok bool) {
	for s.row < s.r.Rows {
		start := s.r.Base + vm.Addr(int64(s.row)*s.r.Stride)
		a, b := vm.PageOf(start), vm.PageOf(start+vm.Addr(s.r.RowBytes)-1)+1
		s.row++
		if s.hi > s.lo && a <= s.hi {
			// Rows ascend, so a row starting inside or right after the
			// pending span can only extend it.
			s.hi = max(s.hi, b)
			continue
		}
		lo, hi, ok = s.lo, s.hi, s.hi > s.lo
		s.lo, s.hi = a, b
		if ok {
			return lo, hi, true
		}
	}
	lo, hi, ok = s.lo, s.hi, s.hi > s.lo
	s.lo, s.hi = 0, 0
	return lo, hi, ok
}

// FaultInRect resolves all faulting pages of the rectangle (demand
// allocation, kernel next-touch migration, NUMA hinting, stale-PTE
// fixups) with the same extent-at-a-time classify-and-service rounds
// as FaultIn, walking the rectangle's row spans instead of one range.
// A protection violation falls back to the single-address Touch path,
// so user next-touch handlers run, and the scan repeats; a rectangle
// that still faults after 16 such rounds is an error, as for FaultIn.
// Returns the number of serviced pages.
func (t *Task) FaultInRect(r Rect, write bool) (int, error) {
	if r.empty() {
		return 0, nil
	}
	spans := r.spans()
	serviced := 0
	for round := 0; round < 16; round++ {
		n, segvAt, segv := t.faultRound(spans, write)
		serviced += n
		if !segv {
			return serviced, nil
		}
		if err := t.Touch(segvAt, write); err != nil {
			return serviced, err
		}
		serviced++
	}
	return serviced, fmt.Errorf("kern: FaultInRect at %#x did not settle", r.Base)
}

// TrafficRect charges the memory traffic of reading/writing the
// rectangle once, based on where its pages currently live. Pages must be
// resident (call FaultInRect first). Partial pages are accounted
// proportionally.
func (t *Task) TrafficRect(r Rect, kind AccessKind, write bool) {
	t.TrafficRectVolume(r, float64(r.Bytes()), kind, write)
}

// TrafficRectVolume charges `volume` bytes of traffic distributed over
// the rectangle's current page placement. Drivers use it to model
// cache-thrashing kernels whose memory volume exceeds the data footprint
// (e.g. column-strided DGEMM re-reading its B operand).
func (t *Task) TrafficRectVolume(r Rect, volume float64, kind AccessKind, write bool) {
	nn := t.Proc.K.M.NumNodes()
	counts := t.scratch.nodeCount
	if cap(counts) < nn {
		counts = make([]int, nn)
	}
	counts = counts[:nn]
	for i := range counts {
		counts[i] = 0
	}
	order := t.scratch.nodeOrder[:0]
	resident := 0
	// Count resident pages per home node extent-at-a-time along the
	// ascending row spans, so the first-appearance node order matches a
	// per-page walk's.
	cur := t.Proc.Space.PT.Cursor()
	spans := r.spans()
	for lo, hi, ok := spans.next(); ok; lo, hi, ok = spans.next() {
		cur.Extents(lo, hi, false, func(e vm.Ext) bool {
			if counts[e.Node] == 0 {
				order = append(order, e.Node)
			}
			counts[e.Node] += e.N
			resident += e.N
			return true
		})
	}
	t.scratch.nodeCount, t.scratch.nodeOrder = counts, order
	if resident == 0 || volume <= 0 {
		return
	}
	perPage := volume / float64(resident)
	for _, node := range order {
		t.chargeNodeTraffic(node, perPage*float64(counts[node]), kind)
	}
}

// AccessRect faults the rectangle in and charges its traffic.
func (t *Task) AccessRect(r Rect, kind AccessKind, write bool) error {
	if _, err := t.FaultInRect(r, write); err != nil {
		return err
	}
	t.TrafficRect(r, kind, write)
	return nil
}

// NodesOfRect returns the per-node resident page counts of a rectangle
// plus the number of absent pages; drivers use it to cache block
// placement summaries.
func (t *Task) NodesOfRect(r Rect) (map[topology.NodeID]int, int) {
	counts := map[topology.NodeID]int{}
	absent := 0
	cur := t.Proc.Space.PT.Cursor()
	spans := r.spans()
	for lo, hi, ok := spans.next(); ok; lo, hi, ok = spans.next() {
		// Gaps (withGaps) arrive with Node == -1 and cover both unmapped
		// spans and installed-but-absent PTEs.
		cur.Extents(lo, hi, true, func(e vm.Ext) bool {
			if e.Flags&vm.PTEPresent == 0 {
				absent += e.N
			} else {
				counts[e.Node] += e.N
			}
			return true
		})
	}
	return counts, absent
}

// PageSizeBytes re-exports the page size for drivers.
const PageSizeBytes = model.PageSize
