package vm

import (
	"sync"

	"numamig/internal/mem"
	"numamig/internal/model"
)

// PTE flag bits.
const (
	PTEPresent   uint8 = 1 << iota // a frame is mapped
	PTERead                        // hardware read permitted
	PTEWrite                       // hardware write permitted
	PTENextTouch                   // migrate-on-next-touch mark
	PTEDirty
	PTEAccessed
	PTEPinned   // page has elevated references (DMA / get_user_pages); not migratable
	PTENumaHint // AutoNUMA hinting mark: protection stripped so the next touch faults
)

// PTE is the value of one page-table entry. The table hands PTEs out
// and takes them back by value only (Get, Install): a path rewriting a
// page reads it, edits the copy and installs it under the chunk lock.
type PTE struct {
	Frame *mem.Frame
	Flags uint8
	// Age counts the consecutive kswapd clock-scan encounters that found
	// the accessed bit clear: the scan zeroes it whenever the bit was
	// set and increments it otherwise (saturating). The demotion scan in
	// internal/kern classifies Age 1 as warm and Age >= 2 as cold; the
	// migration engine resets it when the page moves (arrival counts as
	// a fresh LRU insertion).
	Age uint8
	// PromoGen is the kswapd scan-period generation at which the page
	// was last promoted by AutoNUMA (stamped by the migration engine via
	// Request.StampPromoGen), or 0 if never promoted. Demotion
	// hysteresis skips pages promoted within the last
	// Params.PromotionHysteresisPeriods generations, and demoting a page
	// within Params.FlipWindowPeriods of its promotion counts as a
	// promote/demote flip.
	PromoGen uint32
}

// Present reports whether a frame is mapped.
func (p PTE) Present() bool { return p.Flags&PTEPresent != 0 }

// Chunk is one page-table page: 512 PTEs covering 2 MiB of address
// space. The kernel takes one PTE lock per chunk, which is what limits
// parallel-migration scaling for sub-megabyte buffers (Fig. 7).
//
// A chunk encodes its mapping privately in one of two forms (see
// extent.go): compact extent runs (`runs`, one record per maximal
// same-state range), or a flat 512-entry array (`dense`). Only the
// chunk's own data moves it to the flat form — more than maxRuns runs,
// or an Install that rewrites one page inside a multi-page run — and it
// stays flat until the chunk is released. Huge-page chunks use neither:
// HugeFrame maps one 2 MiB unit.
type Chunk struct {
	runs      []extRun
	dense     *[model.PTEChunkPages]PTE
	Huge      bool
	HugeFrame *mem.Frame
	HugeFlags uint8
	// HugeFallback marks a chunk of a huge mapping that was served
	// with base pages after huge-frame exhaustion (the THP-style
	// fallback in kern.TouchHuge); it never becomes a huge unit.
	HugeFallback bool
}

// ChunkIndex returns the page-table-chunk index of a VPN.
func ChunkIndex(v VPN) uint64 { return uint64(v) / model.PTEChunkPages }

// flatten re-encodes a compact chunk as the flat array (no-op if it
// already is one).
func (c *Chunk) flatten() {
	if c.dense != nil {
		return
	}
	d := densePool.Get().(*[model.PTEChunkPages]PTE)
	for _, r := range c.runs {
		for i := 0; i < int(r.n); i++ {
			d[int(r.off)+i] = r.pte(i)
		}
	}
	c.dense = d
	c.runs = nil
}

// PageTable is a sparse two-level table: chunk index -> chunk.
type PageTable struct {
	chunks map[uint64]*Chunk
}

// NewPageTable creates an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{chunks: map[uint64]*Chunk{}}
}

// Chunk returns the chunk covering v, or nil.
func (t *PageTable) Chunk(v VPN) *Chunk { return t.chunks[ChunkIndex(v)] }

// chunkPool recycles chunk headers; densePool recycles flat PTE arrays.
// Both are zeroed before release, so Get returns clean storage without
// a clear on the allocation path.
var chunkPool = sync.Pool{New: func() interface{} { return new(Chunk) }}
var densePool = sync.Pool{New: func() interface{} { return new([model.PTEChunkPages]PTE) }}

// ChunkOrCreate returns the chunk covering v, creating it (compact and
// empty) if needed.
func (t *PageTable) ChunkOrCreate(v VPN) *Chunk {
	ci := ChunkIndex(v)
	c := t.chunks[ci]
	if c == nil {
		c = chunkPool.Get().(*Chunk)
		t.chunks[ci] = c
	}
	return c
}

// releaseChunk detaches the chunk at index ci and recycles it. The
// caller must have freed every frame the chunk referenced.
func (t *PageTable) releaseChunk(ci uint64) {
	c := t.chunks[ci]
	if c == nil {
		return
	}
	delete(t.chunks, ci)
	if d := c.dense; d != nil {
		*d = [model.PTEChunkPages]PTE{}
		densePool.Put(d)
	}
	*c = Chunk{}
	chunkPool.Put(c)
}

// Lookup returns the value of the PTE covering v: Get under its older
// name.
func (t *PageTable) Lookup(v VPN) PTE { return t.Get(v) }

// NumChunks returns the number of allocated page-table pages.
func (t *PageTable) NumChunks() int { return len(t.chunks) }

// DenseChunks returns the number of chunks in the flat encoding.
func (t *PageTable) DenseChunks() int {
	n := 0
	for _, c := range t.chunks {
		if c.dense != nil {
			n++
		}
	}
	return n
}

// ArmRange arms the PTENumaHint mark on present pages of [start, end)
// that are not already next-touch-marked, hint-armed or pinned, and for
// which skip (when non-nil) returns false. It returns the pages armed
// and the present pages examined — the two counts the AutoNUMA scanner
// charges its costs by. Runs whose shared flags disqualify them are
// rejected wholesale without touching their pages; a skip function
// splits only the runs whose pages it judges differently.
func (t *PageTable) ArmRange(start, end VPN, skip func(v VPN) bool) (armed, examined int) {
	const reject = PTENextTouch | PTENumaHint | PTEPinned
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		if c.dense != nil {
			for off := lo; off < hi; off++ {
				pte := &c.dense[off]
				if pte.Flags&PTEPresent == 0 {
					continue
				}
				examined++
				if pte.Flags&reject != 0 || skip != nil && skip(base+VPN(off)) {
					continue
				}
				pte.Flags |= PTENumaHint
				armed++
			}
			return
		}
		if skip != nil {
			// Cut the eligible runs wherever skip's verdict changes, so
			// the pass below takes one verdict per run.
			for i := c.findRun(lo); i < len(c.runs) && c.runs[i].off < hi; i++ {
				r := c.runs[i]
				if r.flags&PTEPresent == 0 || r.flags&reject != 0 {
					continue
				}
				s, e := max(r.off, lo), min(r.end(), hi)
				veto := skip(base + VPN(s))
				for off := s + 1; off < e; off++ {
					if v := skip(base + VPN(off)); v != veto {
						i, veto = c.splitAt(off), v
					}
				}
			}
		}
		c.mutateRuns(lo, hi, func(r *extRun) {
			if r.flags&PTEPresent == 0 {
				return
			}
			examined += int(r.n)
			if r.flags&reject != 0 || skip != nil && skip(base+VPN(r.off)) {
				return
			}
			r.flags |= PTENumaHint
			armed += int(r.n)
		})
	})
	return armed, examined
}

// SetFlagsRange clears the bits of clear and then sets the bits of set
// on every present page in [start, end), and returns the number of
// present pages covered — the one range write behind mprotect, madvise,
// pinning, minor-fault fixups and access marking. Runs already in the
// target state are counted without being split. Neither mask may name
// PTEPresent.
func (t *PageTable) SetFlagsRange(start, end VPN, set, clear uint8) int {
	n := 0
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		if c.dense != nil {
			for off := lo; off < hi; off++ {
				if pte := &c.dense[off]; pte.Flags&PTEPresent != 0 {
					pte.Flags = pte.Flags&^clear | set
					n++
				}
			}
			return
		}
		needs := false
		for i := c.findRun(lo); i < len(c.runs) && c.runs[i].off < hi; i++ {
			if r := &c.runs[i]; r.flags&PTEPresent != 0 {
				n += int(min(r.end(), hi) - max(r.off, lo))
				needs = needs || r.flags&^clear|set != r.flags
			}
		}
		if needs {
			c.mutateRuns(lo, hi, func(r *extRun) {
				if r.flags&PTEPresent != 0 {
					r.flags = r.flags&^clear | set
				}
			})
		}
	})
	return n
}
