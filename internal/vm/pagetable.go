package vm

import (
	"sync"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
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

// PTE is one page-table entry.
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
func (p *PTE) Present() bool { return p != nil && p.Flags&PTEPresent != 0 }

// Allows reports whether the hardware bits permit the access. A
// next-touch-marked or NUMA-hint-marked PTE never allows access (the
// kernel cleared its permission bits so the touch faults).
func (p *PTE) Allows(write bool) bool {
	if p == nil {
		return false
	}
	return FlagsAllow(p.Flags, write)
}

// SetProt installs hardware permission bits from a Prot mask, preserving
// other flags.
func (p *PTE) SetProt(prot Prot) {
	p.Flags = protFlags(p.Flags, prot)
}

// protFlags returns flags with the hardware permission bits replaced by
// the Prot mask.
func protFlags(flags uint8, prot Prot) uint8 {
	flags &^= PTERead | PTEWrite
	if prot&ProtRead != 0 {
		flags |= PTERead
	}
	if prot&ProtWrite != 0 {
		flags |= PTEWrite
	}
	return flags
}

// Chunk is one page-table page: 512 PTEs covering 2 MiB of address
// space. The kernel takes one PTE lock per chunk, which is what limits
// parallel-migration scaling for sub-megabyte buffers (Fig. 7).
//
// A chunk stores its mapping in one of two forms (see extent.go):
// compact extent runs (`runs`, the default — one record per maximal
// same-state range) or a materialized dense array (`dense`), entered
// the first time a caller takes a *PTE alias into the chunk and kept
// until Coalesce. Huge-page chunks (the paper's future-work extension)
// use neither: HugeFrame maps one 2 MiB unit.
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

// materialize converts the chunk to dense form (no-op if already dense)
// and returns the array. The chunk stays dense afterwards: outstanding
// *PTE aliases must remain valid.
func (c *Chunk) materialize() *[model.PTEChunkPages]PTE {
	if c.dense == nil {
		d := densePool.Get().(*[model.PTEChunkPages]PTE)
		for _, r := range c.runs {
			for i := 0; i < int(r.n); i++ {
				d[int(r.off)+i] = r.pte(i)
			}
		}
		c.dense = d
		c.runs = nil
	}
	return c.dense
}

// PTE returns the chunk's entry at index i (0..model.PTEChunkPages-1),
// aliasing chunk storage — the chunk materializes to dense form if it
// was compact. Callers that already hold the chunk use it to scan the
// PTE array directly instead of re-resolving the chunk map for every
// page (PageTable.Lookup). Meaningless on huge chunks.
func (c *Chunk) PTE(i int) *PTE { return &c.materialize()[i] }

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

// chunkPool recycles chunk headers; densePool recycles materialized PTE
// arrays. Both are zeroed before release, so Get returns clean storage
// without a clear on the allocation path.
var chunkPool = sync.Pool{New: func() interface{} { return new(Chunk) }}
var densePool = sync.Pool{New: func() interface{} { return new([model.PTEChunkPages]PTE) }}

func releaseDense(d *[model.PTEChunkPages]PTE) {
	*d = [model.PTEChunkPages]PTE{}
	densePool.Put(d)
}

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
	if c.dense != nil {
		releaseDense(c.dense)
	}
	*c = Chunk{}
	chunkPool.Put(c)
}

// Lookup returns the PTE for v, or nil if the covering chunk does not
// exist. The returned pointer aliases table state (materializing the
// chunk); prefer Get/Touch/Install on paths that should stay compact.
func (t *PageTable) Lookup(v VPN) *PTE {
	c := t.chunks[ChunkIndex(v)]
	if c == nil || c.Huge {
		return nil
	}
	return &c.materialize()[uint64(v)%model.PTEChunkPages]
}

// Entry returns the PTE for v, creating the covering chunk.
func (t *PageTable) Entry(v VPN) *PTE {
	c := t.ChunkOrCreate(v)
	if c.Huge {
		panic("vm: 4k entry requested inside huge-page chunk")
	}
	return &c.materialize()[uint64(v)%model.PTEChunkPages]
}

// NumChunks returns the number of allocated page-table pages.
func (t *PageTable) NumChunks() int { return len(t.chunks) }

// DenseChunks returns the number of chunks materialized to dense form —
// the count a path that should stay extent-native must not raise.
func (t *PageTable) DenseChunks() int {
	n := 0
	for _, c := range t.chunks {
		if c.dense != nil {
			n++
		}
	}
	return n
}

// ForEach visits every present 4 KiB PTE in [start, end) VPNs, in
// ascending order, without creating chunks (existing compact chunks do
// materialize — the callback may mutate through the pointer). Huge
// chunks are skipped (the caller handles them via Chunk).
func (t *PageTable) ForEach(start, end VPN, fn func(v VPN, pte *PTE)) {
	for v := start; v < end; {
		c := t.chunks[ChunkIndex(v)]
		if c == nil || c.Huge {
			// Skip to next chunk boundary.
			v = VPN((ChunkIndex(v) + 1) * model.PTEChunkPages)
			continue
		}
		d := c.materialize()
		chunkEnd := VPN((ChunkIndex(v) + 1) * model.PTEChunkPages)
		stop := end
		if chunkEnd < stop {
			stop = chunkEnd
		}
		for ; v < stop; v++ {
			pte := &d[uint64(v)%model.PTEChunkPages]
			if pte.Flags&PTEPresent != 0 {
				fn(v, pte)
			}
		}
	}
}

// Run is one maximal extent of present PTEs inside a single chunk that
// share identical Flags and an identical backing node — the unit the
// bulk access, scan and hinting paths charge and mutate at, instead of
// one closure call per 4 KiB page. PTEs aliases chunk storage: index i
// covers VPN Start+i, and mutating entries through it mutates the
// table. Node is -1 when the run's PTEs carry no frame.
type Run struct {
	Start VPN
	PTEs  []PTE
	Flags uint8
	Node  topology.NodeID
}

// Len returns the page count of the run.
func (r *Run) Len() int { return len(r.PTEs) }

// PTE returns the entry covering VPN Start+i, aliasing table state.
func (r *Run) PTE(i int) *PTE { return &r.PTEs[i] }

func frameNode(pte *PTE) topology.NodeID {
	if pte.Frame == nil {
		return -1
	}
	return pte.Frame.Node
}

// ForEachRun visits every present 4 KiB PTE in [start, end) in ascending
// order, grouped into maximal same-state runs (equal Flags, equal
// backing node, contiguous VPNs, one chunk). It never creates chunks;
// huge chunks are skipped like ForEach, and compact chunks materialize
// (fn may mutate the run's PTEs). Visiting per run instead of per page
// keeps per-page work out of the hot loops: a sweep over an untouched,
// uniformly-placed gigabyte costs ~512 run visits rather than ~260k
// closure calls. fn may mutate the run's PTEs (the iterator has already
// advanced past them) but must not unmap pages or mutate chunk
// structure. Read-only walks that should not force materialization use
// Extents instead.
func (t *PageTable) ForEachRun(start, end VPN, fn func(r Run)) {
	for v := start; v < end; {
		ci := ChunkIndex(v)
		c := t.chunks[ci]
		if c == nil || c.Huge {
			v = VPN((ci + 1) * model.PTEChunkPages)
			continue
		}
		d := c.materialize()
		chunkEnd := VPN((ci + 1) * model.PTEChunkPages)
		stop := end
		if chunkEnd < stop {
			stop = chunkEnd
		}
		base := VPN(ci * model.PTEChunkPages)
		for v < stop {
			off := int(v - base)
			pte := &d[off]
			if pte.Flags&PTEPresent == 0 {
				v++
				continue
			}
			runStart := v
			flags := pte.Flags
			node := frameNode(pte)
			v++
			for v < stop {
				q := &d[int(v-base)]
				if q.Flags != flags || frameNode(q) != node {
					break
				}
				v++
			}
			fn(Run{
				Start: runStart,
				PTEs:  d[off : off+int(v-runStart)],
				Flags: flags,
				Node:  node,
			})
		}
	}
}

// SetProtRange installs hardware permission bits on every present PTE
// in [start, end) and returns the number of entries touched — the bulk
// equivalent of calling PTE.SetProt under ForEach. Compact chunks are
// updated run-at-a-time without materializing.
func (t *PageTable) SetProtRange(start, end VPN, prot Prot) int {
	n := 0
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		if c.dense != nil {
			for off := lo; off < hi; off++ {
				pte := &c.dense[off]
				if pte.Flags&PTEPresent != 0 {
					pte.SetProt(prot)
					n++
				}
			}
			return
		}
		c.mutateRuns(lo, hi, func(r *extRun) {
			if r.flags&PTEPresent != 0 {
				r.flags = protFlags(r.flags, prot)
				n += int(r.n)
			}
		})
	})
	return n
}

// ArmRange arms the PTENumaHint mark on present pages of [start, end)
// that are not already next-touch-marked, hint-armed or pinned, and for
// which skip (when non-nil) returns false. It returns the pages armed
// and the present pages examined — the two counts the AutoNUMA scanner
// charges its costs by. Runs whose shared flags disqualify them are
// rejected wholesale without touching their PTEs. With a nil skip the
// walk is fully extent-native; a per-page skip (page replication
// scenarios) materializes the covered chunks.
func (t *PageTable) ArmRange(start, end VPN, skip func(v VPN) bool) (armed, examined int) {
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		if c.dense == nil && skip == nil {
			c.mutateRuns(lo, hi, func(r *extRun) {
				if r.flags&PTEPresent == 0 {
					return
				}
				examined += int(r.n)
				if r.flags&(PTENextTouch|PTENumaHint|PTEPinned) != 0 {
					return
				}
				r.flags |= PTENumaHint
				armed += int(r.n)
			})
			return
		}
		d := c.materialize()
		for off := lo; off < hi; off++ {
			pte := &d[off]
			if pte.Flags&PTEPresent == 0 {
				continue
			}
			examined++
			if pte.Flags&(PTENextTouch|PTENumaHint|PTEPinned) != 0 {
				continue
			}
			if skip != nil && skip(base+VPN(off)) {
				continue
			}
			pte.Flags |= PTENumaHint
			armed++
		}
	})
	return armed, examined
}

// ClearAccessedRange clears the accessed bit (and resets the clock-scan
// age) of every present, accessed page in [start, end), returning the
// number of pages cleared — the bulk form of the clock scan's aging
// step. Runs without the accessed bit are skipped wholesale.
func (t *PageTable) ClearAccessedRange(start, end VPN) int {
	n := 0
	t.forRangeChunks(start, end, func(c *Chunk, base VPN, lo, hi uint16) {
		if c.dense != nil {
			for off := lo; off < hi; off++ {
				pte := &c.dense[off]
				if pte.Flags&(PTEPresent|PTEAccessed) == PTEPresent|PTEAccessed {
					pte.Flags &^= PTEAccessed
					pte.Age = 0
					n++
				}
			}
			return
		}
		c.mutateRuns(lo, hi, func(r *extRun) {
			if r.flags&(PTEPresent|PTEAccessed) == PTEPresent|PTEAccessed {
				r.flags &^= PTEAccessed
				r.age = 0
				n += int(r.n)
			}
		})
	})
	return n
}
