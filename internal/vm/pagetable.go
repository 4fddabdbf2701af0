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
// parallel-migration scaling for sub-megabyte buffers (Fig. 7). The
// PTEs sit inline, so a chunk is one 8 KiB allocation.
type Chunk struct {
	ptes [model.PTEChunkPages]PTE
}

// ChunkIndex returns the page-table-chunk index of a VPN.
func ChunkIndex(v VPN) uint64 { return uint64(v) / model.PTEChunkPages }

// PageTable is a sparse two-level table: chunk index -> chunk. A 2 MiB
// huge unit is an entry one level up, like Linux's PMD-mapped huge
// page: huge maps a chunk index to one PTE, with no chunk beneath it.
// An index holds a chunk or a unit, never both.
type PageTable struct {
	chunks map[uint64]*Chunk
	huge   map[uint64]PTE
}

// NewPageTable creates an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{chunks: map[uint64]*Chunk{}}
}

// Chunk returns the chunk covering v, or nil.
func (t *PageTable) Chunk(v VPN) *Chunk { return t.chunks[ChunkIndex(v)] }

// Huge returns the 2 MiB unit entry covering v: Frame is the unit's
// representative frame and Flags its present, accessed and pinned
// bits. It is the zero PTE when no unit maps v's 2 MiB. The 4 KiB
// reads (Get, Extents, Cursor) read a unit's pages as absent.
func (t *PageTable) Huge(v VPN) PTE { return t.huge[ChunkIndex(v)] }

// SetHuge stores unit entry e for the 2 MiB covering v; a zero e
// removes the unit. It panics where a chunk maps v's 2 MiB.
func (t *PageTable) SetHuge(v VPN, e PTE) {
	ci := ChunkIndex(v)
	if t.chunks[ci] != nil {
		panic("vm: huge unit over a PTE page")
	}
	if e == (PTE{}) {
		delete(t.huge, ci)
		return
	}
	if t.huge == nil {
		t.huge = map[uint64]PTE{}
	}
	t.huge[ci] = e
}

// chunkPool recycles chunks. They are zeroed before release, so a
// pooled chunk comes back clean without a clear on the allocation path.
var chunkPool = sync.Pool{New: func() interface{} { return new(Chunk) }}

// newChunk creates the (empty) chunk at index ci. It panics where a
// huge unit maps the index.
func (t *PageTable) newChunk(ci uint64) *Chunk {
	if _, ok := t.huge[ci]; ok {
		panic("vm: PTE page under a huge unit")
	}
	c := chunkPool.Get().(*Chunk)
	t.chunks[ci] = c
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
	*c = Chunk{}
	chunkPool.Put(c)
}

// Lookup returns the value of the PTE covering v: Get under its older
// name.
func (t *PageTable) Lookup(v VPN) PTE { return t.Get(v) }

// NumChunks returns the number of allocated page-table pages; huge
// units are not pages.
func (t *PageTable) NumChunks() int { return len(t.chunks) }

// ArmRange arms the PTENumaHint mark on present pages of [start, end)
// that are not already next-touch-marked, hint-armed or pinned, and for
// which skip (when non-nil) returns false. It returns the pages armed
// and the present pages examined — the two counts the AutoNUMA scanner
// charges its costs by.
func (t *PageTable) ArmRange(start, end VPN, skip func(v VPN) bool) (armed, examined int) {
	const reject = PTENextTouch | PTENumaHint | PTEPinned
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		for off := lo; off < hi; off++ {
			pte := &c.ptes[off]
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
	})
	return armed, examined
}

// SetFlagsRange clears the bits of clear and then sets the bits of set
// on every present page in [start, end), and returns the number of
// present pages covered — the one range write behind mprotect, madvise,
// pinning, minor-fault fixups and access marking. Neither mask may name
// PTEPresent.
func (t *PageTable) SetFlagsRange(start, end VPN, set, clear uint8) int {
	n := 0
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		for off := lo; off < hi; off++ {
			if pte := &c.ptes[off]; pte.Flags&PTEPresent != 0 {
				pte.Flags = pte.Flags&^clear | set
				n++
			}
		}
	})
	return n
}
