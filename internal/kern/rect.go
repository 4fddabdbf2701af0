package kern

import (
	"fmt"

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

// check rejects a rectangle with a negative RowBytes or Rows, naming the
// call and the field in the error; a zero size is an empty rectangle.
func (r Rect) check(call string) error {
	switch {
	case r.RowBytes < 0:
		return fmt.Errorf("kern: %s of negative RowBytes %d at %#x", call, r.RowBytes, r.Base)
	case r.Rows < 0:
		return fmt.Errorf("kern: %s of negative Rows %d at %#x", call, r.Rows, r.Base)
	}
	return nil
}

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

// appendSpans appends the rectangle's spans to dst.
func (r Rect) appendSpans(dst []vm.Span) []vm.Span {
	spans := r.spans()
	for lo, hi, ok := spans.next(); ok; lo, hi, ok = spans.next() {
		dst = append(dst, vm.Span{Lo: lo, Hi: hi})
	}
	return dst
}

// FaultInRect resolves all faulting pages of the rectangle (demand
// allocation, kernel next-touch migration, NUMA hinting, stale-PTE
// fixups and SIGSEGV delivery) with the page-fault handler FaultIn
// runs, walking the rectangle's row spans instead of one range.
// Returns the number of serviced pages. A negative RowBytes or Rows is
// an error.
func (t *Task) FaultInRect(r Rect, write bool) (int, error) {
	if err := r.check("FaultInRect"); err != nil || r.empty() {
		return 0, err
	}
	return t.handleFaults(r.spans(), write, "FaultInRect", r.Base)
}

// TrafficRect charges the memory traffic of reading/writing the
// rectangle once, based on where its pages currently live. Pages must be
// resident (call FaultInRect first). Partial pages are accounted
// proportionally.
func (t *Task) TrafficRect(r Rect, kind AccessKind, write bool) {
	t.TrafficRectVolume(r, float64(r.Bytes()), kind, write)
}

// TrafficRectVolume charges `volume` bytes of traffic distributed over
// the rectangle's current page placement, in proportion to the pages
// each node serves (a read of a replicated page is served by the
// reader's copy). The LU and BLAS workloads use it to model
// cache-thrashing kernels whose memory volume exceeds the data
// footprint (e.g. column-strided DGEMM re-reading its B operand).
func (t *Task) TrafficRectVolume(r Rect, volume float64, kind AccessKind, write bool) {
	t.scratch.spans = r.appendSpans(t.scratch.spans[:0])
	counts, order, resident := t.census(t.scratch.spans, !write)
	if resident == 0 || volume <= 0 {
		return
	}
	perPage := volume / float64(resident)
	for _, node := range order {
		t.chargeNodeTraffic(node, perPage*float64(counts[node]), kind)
	}
}

// AccessRect faults the rectangle in and charges its traffic. A
// negative RowBytes or Rows is an error.
func (t *Task) AccessRect(r Rect, kind AccessKind, write bool) error {
	if err := r.check("AccessRect"); err != nil {
		return err
	}
	if _, err := t.FaultInRect(r, write); err != nil {
		return err
	}
	t.TrafficRect(r, kind, write)
	return nil
}

// NodesOfRect returns the per-home-node resident page counts of a
// rectangle plus the number of its other pages, which are absent (a
// present page without a frame, which no kernel path maps, counts there
// too). A workload can cache the result as a block placement summary.
func (t *Task) NodesOfRect(r Rect) (map[topology.NodeID]int, int) {
	t.scratch.spans = r.appendSpans(t.scratch.spans[:0])
	counts, order, resident := t.census(t.scratch.spans, false)
	byNode := make(map[topology.NodeID]int, len(order))
	for _, node := range order {
		byNode[node] = counts[node]
	}
	pages := 0
	for _, s := range t.scratch.spans {
		pages += int(s.Hi - s.Lo)
	}
	return byNode, pages - resident
}
