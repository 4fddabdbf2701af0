package vm

import (
	"fmt"
	"sort"

	"numamig/internal/mem"
	"numamig/internal/model"
)

// VMAFlags carry mapping attributes.
type VMAFlags uint8

// VMA flags.
const (
	// VMAAnon marks a private anonymous mapping (the only kind the
	// paper's kernel next-touch supports; shared next-touch is our
	// extension).
	VMAAnon VMAFlags = 1 << iota
	// VMAShared marks a shared mapping.
	VMAShared
	// VMAHuge requests 2 MiB huge pages.
	VMAHuge
)

// VMA is a virtual memory area: a page-aligned address range with uniform
// protection, policy and flags.
type VMA struct {
	Start Addr // inclusive, page aligned
	End   Addr // exclusive, page aligned
	Prot  Prot
	Pol   Policy
	Flags VMAFlags
	Label string // debugging aid
}

// Len returns the byte length.
func (v *VMA) Len() int64 { return int64(v.End - v.Start) }

// Pages returns the page count.
func (v *VMA) Pages() int { return int(v.Len() / model.PageSize) }

// Contains reports whether a falls inside the VMA.
func (v *VMA) Contains(a Addr) bool { return a >= v.Start && a < v.End }

func (v *VMA) String() string {
	return fmt.Sprintf("[%#x-%#x %s %s %q]", v.Start, v.End, v.Prot, v.Pol.Kind, v.Label)
}

// attrEqual reports whether two VMAs can merge.
func (v *VMA) attrEqual(w *VMA) bool {
	return v.Prot == w.Prot && v.Flags == w.Flags && v.Pol.Equal(w.Pol) && v.Label == w.Label
}

// Space is one process address space: a sorted VMA list plus a page
// table.
type Space struct {
	vmas []*VMA
	PT   *PageTable
	brk  Addr
	Phys *mem.Phys
	// DefaultPol is the process mempolicy (set_mempolicy).
	DefaultPol Policy
	// OnFree, when non-nil, observes every 4 KiB frame an unmap
	// releases, called immediately after the frame returns to Phys —
	// the instant the allocator's gauges are consistent — so per-owner
	// ledgers (the tenancy layer) can uncharge at exactly the
	// granularity mem.Phys sees. A 2 MiB unit's entry does not notify:
	// the unit returns to Phys whole, frame and footprint, through
	// Phys.FreeHuge.
	OnFree func(*mem.Frame)
}

// mmapBase is where anonymous mappings start.
const mmapBase Addr = 0x7f00_0000_0000

// NewSpace creates an empty address space backed by phys.
func NewSpace(phys *mem.Phys) *Space {
	return &Space{PT: NewPageTable(), brk: mmapBase, Phys: phys, DefaultPol: DefaultPolicy()}
}

// NumVMAs returns the current VMA count.
func (s *Space) NumVMAs() int { return len(s.vmas) }

// VMAs returns the VMAs in address order (aliases internal state; do not
// mutate the slice).
func (s *Space) VMAs() []*VMA { return s.vmas }

// Find returns the VMA containing a, or nil.
func (s *Space) Find(a Addr) *VMA {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > a })
	if i < len(s.vmas) && s.vmas[i].Contains(a) {
		return s.vmas[i]
	}
	return nil
}

// Map creates a new anonymous mapping of length bytes (rounded up to
// pages) and returns its base address. Huge mappings are aligned to and
// rounded to 2 MiB.
func (s *Space) Map(length int64, prot Prot, pol Policy, flags VMAFlags, label string) (Addr, error) {
	if length <= 0 {
		return 0, fmt.Errorf("vm: map of non-positive length %d", length)
	}
	align := Addr(model.PageSize)
	if flags&VMAHuge != 0 {
		align = model.HugePageSize
	}
	start := (s.brk + align - 1) &^ (align - 1)
	sz := (Addr(length) + align - 1) &^ (align - 1)
	v := &VMA{Start: start, End: start + sz, Prot: prot, Pol: pol, Flags: flags | VMAAnon, Label: label}
	s.brk = v.End + Addr(model.PageSize) // guard page gap
	s.insert(v)
	return start, nil
}

func (s *Space) insert(v *VMA) {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].Start >= v.Start })
	s.vmas = append(s.vmas, nil)
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
}

// Unmap removes [start, start+length), freeing mapped frames. Partial
// unmaps split VMAs. Like Linux's free_pgtables, it then releases every
// chunk the removed VMAs reached that no VMA overlaps any more (pages
// are mapped only inside VMAs, so such a chunk maps nothing) and
// returns their indices [lo, hi): each holds neither a chunk nor a
// 2 MiB unit. The span is empty when no VMA was removed.
func (s *Space) Unmap(start Addr, length int64) (lo, hi uint64, err error) {
	if start%model.PageSize != 0 || length <= 0 {
		return 0, 0, fmt.Errorf("vm: bad unmap range %#x+%d", start, length)
	}
	end := PageCeil(start + Addr(length))
	if err := s.split(start); err != nil {
		return 0, 0, err
	}
	if err := s.split(end); err != nil {
		return 0, 0, err
	}
	// After the boundary splits every VMA is entirely inside or entirely
	// outside [start, end), and the inside ones are one contiguous index
	// range — locate it by binary search and cut it out, instead of
	// filtering the whole list on every unmap.
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].Start >= start })
	j := i
	for j < len(s.vmas) && s.vmas[j].End <= end {
		s.freeRange(s.vmas[j].Start, s.vmas[j].End)
		j++
	}
	if j == i {
		return 0, 0, nil
	}
	lo, hi = ChunkIndex(PageOf(s.vmas[i].Start)), ChunkIndex(PageOf(s.vmas[j-1].End-1))+1
	s.vmas = append(s.vmas[:i], s.vmas[j:]...)
	// Clip the span to the gap the cut left between the surviving
	// neighbours.
	if i > 0 {
		lo = max(lo, ChunkIndex(PageOf(s.vmas[i-1].End-1))+1)
	}
	if i < len(s.vmas) {
		hi = max(lo, min(hi, ChunkIndex(PageOf(s.vmas[i].Start))))
	}
	for ci := lo; ci < hi; ci++ {
		s.PT.releaseChunk(ci)
	}
	return lo, hi, nil
}

// freeRange releases all frames mapped in [start, end): the 4 KiB
// frames through UnmapRange, which also recycles the chunks the range
// covers whole, then every 2 MiB unit the range overlaps, whole.
func (s *Space) freeRange(start, end Addr) {
	sv, ev := PageOf(start), PageOf(end-1)+1
	free := s.Phys.Free
	if s.OnFree != nil {
		onFree := s.OnFree
		free = func(f *mem.Frame) {
			s.Phys.Free(f)
			onFree(f)
		}
	}
	s.PT.UnmapRange(sv, ev, free)
	if len(s.PT.huge) == 0 {
		return
	}
	for ci := ChunkIndex(sv); ci <= ChunkIndex(ev-1); ci++ {
		if u, ok := s.PT.huge[ci]; ok {
			s.Phys.FreeHuge(u.Frame)
			delete(s.PT.huge, ci)
		}
	}
}

// split ensures a VMA boundary at address a (if a falls inside a VMA).
func (s *Space) split(a Addr) error {
	if a%model.PageSize != 0 {
		return fmt.Errorf("vm: split at unaligned address %#x", a)
	}
	v := s.Find(a)
	if v == nil || v.Start == a {
		return nil
	}
	tail := *v
	tail.Start = a
	v.End = a
	s.insert(&tail)
	return nil
}

// Apply modifies all VMAs overlapping [start, end), splitting at the
// boundaries first, then calling fn on each covered VMA, then re-merging
// identical neighbours. Used by mprotect, mbind, and madvise.
func (s *Space) Apply(start, end Addr, fn func(*VMA)) error {
	if start >= end {
		return fmt.Errorf("vm: empty apply range %#x-%#x", start, end)
	}
	if err := s.split(start); err != nil {
		return err
	}
	if err := s.split(end); err != nil {
		return err
	}
	for _, v := range s.vmas {
		if v.Start >= end || v.End <= start {
			continue
		}
		fn(v)
	}
	s.merge()
	return nil
}

// merge coalesces adjacent VMAs with identical attributes.
func (s *Space) merge() {
	if len(s.vmas) < 2 {
		return
	}
	out := s.vmas[:1]
	for _, v := range s.vmas[1:] {
		last := out[len(out)-1]
		if last.End == v.Start && last.attrEqual(v) {
			last.End = v.End
			continue
		}
		out = append(out, v)
	}
	s.vmas = out
}

// CheckInvariants verifies the VMA list is sorted, non-overlapping and
// page-aligned; used by tests.
func (s *Space) CheckInvariants() error {
	for i, v := range s.vmas {
		if v.Start >= v.End {
			return fmt.Errorf("vm: empty vma %v", v)
		}
		if v.Start%model.PageSize != 0 || v.End%model.PageSize != 0 {
			return fmt.Errorf("vm: unaligned vma %v", v)
		}
		if i > 0 && s.vmas[i-1].End > v.Start {
			return fmt.Errorf("vm: overlap %v / %v", s.vmas[i-1], v)
		}
	}
	return nil
}

// ResidentPages counts present pages in [start, end).
func (s *Space) ResidentPages(start, end Addr) int {
	n := 0
	s.PT.Extents(PageOf(start), PageOf(end-1)+1, false, func(e Ext) bool {
		n += e.N
		return true
	})
	return n
}
