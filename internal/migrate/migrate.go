// Package migrate is the single batched page-migration engine of the
// simulated kernel: the one place in the repository where pages
// physically move between NUMA nodes.
//
// The paper's core observation (Goglin & Furmento, §3.1) is that
// move_pages becomes practical once the syscall is restructured as one
// batched pass — gather the requested pages, group them by target node,
// perform one bulk copy per node pair, rewrite the PTEs, and flush the
// TLBs — instead of a quadratic per-page walk of the destination array.
// The seed codebase implemented that pipeline three separate times (the
// move_pages syscall, the kernel next-touch fault path, and the
// user-space next-touch handler); this package hosts the one shared
// implementation behind the Engine type — also serving huge-page moves
// (Op.Huge: one control round and one 2 MiB copy per unit) and AutoNUMA
// hinting-fault promotion (PathNumaHint) — with two strategies:
//
//   - Patched: the paper's linear implementation (2.6.29), one pass per
//     target node;
//   - Unpatched: the pre-2.6.29 behaviour, which scans the entire
//     destination-node array once per page (quadratic cost).
//
// The pipeline stages of Engine.Migrate, in order:
//
//  1. gather      — split the request into batches bounded by the
//     PTE-chunk (lock) granularity and the pagevec size;
//  2. classify    — under the chunk lock, sort each batch's pages into
//     movable / already-local / absent / busy (pinned);
//  3. control     — charge per-page isolation and PTE-update costs,
//     partially under the global LRU lock (the serialized fraction
//     that limits threaded scaling, §4.4);
//  4. rewrite     — allocate destination frames, copy backing bytes,
//     free the old frames, and swap the PTEs while the chunk is
//     locked, accumulating bytes per (source, destination) node pair;
//  5. bulk copy   — one fluid-network transfer per node pair, outside
//     the PTE locks, through the sync or lazy migration channel;
//  6. retry       — busy (pinned) pages are re-attempted with backoff,
//     like the kernel's EAGAIN loop, before reporting EBUSY;
//  7. flush       — one TLB shootdown for the whole request;
//  8. account     — per-engine Stats and per-request Result counters.
//
// The package sits below internal/kern in the import graph: the kernel
// provides its machinery (frame allocator, global locks, migration
// channels, per-process page table and PTE locks) through the Env and
// Space interfaces.
package migrate

import (
	"sync"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Strategy selects the move_pages implementation generation.
type Strategy int

// Strategies.
const (
	// Patched is the paper's linear implementation: one batched pass,
	// grouped by target node (merged in Linux 2.6.29).
	Patched Strategy = iota
	// Unpatched reproduces the pre-2.6.29 quadratic behaviour: a linear
	// scan of the whole destination-node array for every page.
	Unpatched
)

func (s Strategy) String() string {
	if s == Unpatched {
		return "unpatched"
	}
	return "patched"
}

// StrategyFor maps the legacy "patched" flag of the syscall surface.
func StrategyFor(patched bool) Strategy {
	if patched {
		return Patched
	}
	return Unpatched
}

// Path identifies which kernel path invokes the engine; it selects the
// calibrated cost constants and the migration-channel class.
type Path int

// Paths.
const (
	// PathMovePages is the move_pages(2) syscall: arbitrary page sets,
	// status array write-back, batched sync channel.
	PathMovePages Path = iota
	// PathMigratePages is migrate_pages(2): in-order address-space
	// traversal, which locks less per page (§4.2).
	PathMigratePages
	// PathNextTouch is fault-time lazy migration (kernel next-touch,
	// §3.3): no syscall setup, per-fault control costs, lazy channel.
	PathNextTouch
	// PathNumaHint is AutoNUMA promotion after a hinting fault
	// (internal/autonuma): fault-path control costs on the lazy channel,
	// no syscall setup, copy outside the PTE lock (the kernel restores
	// access before migrate_misplaced_page runs).
	PathNumaHint
	// PathDemotion is kswapd-style background demotion of cold pages
	// off a pressured node (internal/kern's demotion daemon): no
	// syscall setup, daemon-side control costs, lazy channel — so
	// demotion gets the same batching, pinned-page retry/EBUSY and
	// TLB semantics as every other mover.
	PathDemotion
)

// Page-status codes, mirroring Linux errno conventions.
const (
	// StatusNoEnt marks a page that was not present (-ENOENT).
	StatusNoEnt = -2
	// StatusBusy marks a page that stayed pinned through every retry
	// pass (-EBUSY).
	StatusBusy = -16
)

// Env provides the kernel machinery the engine runs on. Implemented by
// *kern.Kernel; the indirection keeps this package below kern in the
// import graph.
type Env interface {
	// Params returns the calibrated cost model.
	Params() *model.Params
	// AllocFrame allocates a frame on target, falling back to other
	// nodes in distance order when the target is full.
	AllocFrame(target topology.NodeID) *mem.Frame
	// FreeFrame returns a frame to the physical allocator.
	FreeFrame(f *mem.Frame)
	// AllocHugeFrame reserves a 2 MiB unit (one representative frame
	// plus its 511-frame footprint) on target.
	AllocHugeFrame(target topology.NodeID) *mem.Frame
	// FreeHugeFrame releases a 2 MiB unit and its footprint.
	FreeHugeFrame(f *mem.Frame)
	// NoteMigration records one migrated-in page on dst.
	NoteMigration(dst topology.NodeID)
	// TierOf returns a node's memory tier id (0 = DRAM/fast, higher =
	// slower); the engine uses it to break its traffic down by tier
	// direction (Stats.PagesTierDown / PagesTierUp).
	TierOf(n topology.NodeID) int
	// Bus returns the machine's telemetry event bus; the engine
	// publishes MigrateBatch and TierTraffic events on it.
	Bus() *telemetry.Bus
	// MigLock is the global serialized migration-setup lock (task
	// lookup, per-CPU pagevec drains).
	MigLock() *sim.Resource
	// LRULock is the global LRU lock held for part of the per-page
	// control work.
	LRULock() *sim.Resource
	// Copy transfers bytes through the kernel migration channel between
	// src and dst, executed on core. syncChan selects the batched
	// move_pages/migrate_pages channel capacity over the lazy one.
	Copy(p *sim.Proc, bytes float64, core topology.CoreID, src, dst topology.NodeID, syncChan bool)
}

// PageMover is optionally implemented by a Space whose owner needs a
// notification for every 4 KiB op the engine physically moves. The
// engine calls it inside the rewrite stage, after the destination
// frame is allocated and the source frame freed — the instant the
// physical allocator's gauges are consistent again — so the tenancy
// ledger can account migrations at exactly the granularity mem.Phys
// sees them, and a replica copy already on dst can be freed. Huge ops
// do not notify (their footprint accounting runs through
// AllocHugeFrame/FreeHugeFrame, outside per-frame ledgers).
type PageMover interface {
	NotePageMove(v vm.VPN, src, dst topology.NodeID)
}

// Space is the per-process address-space surface the engine mutates.
// Implemented by *kern.Process.
type Space interface {
	// PageTable returns the process page table.
	PageTable() *vm.PageTable
	// ChunkLock returns the PTE lock covering one 2 MiB chunk.
	ChunkLock(ci uint64) *sim.Resource
	// TLBFlush charges a TLB shootdown across the process's cores.
	TLBFlush(p *sim.Proc)
}

// Op orders the page at VPN onto node Dst. Huge marks a 2 MiB huge-page
// op: VPN is the unit's first page and the unit the page table maps
// there (vm.PageTable.Huge) moves as one (one control round, one 2 MiB
// bulk copy).
type Op struct {
	VPN  vm.VPN
	Dst  topology.NodeID
	Huge bool
}

// Request is one migration order: a set of page moves executed by the
// simulated thread P on Core. The caller holds mmap_sem (shared) and
// must not hold any chunk lock.
type Request struct {
	P     *sim.Proc
	Core  topology.CoreID
	Space Space
	Ops   []Op
	// Status, when non-nil, receives the per-page outcome (resulting
	// node or a negative errno-style code) parallel to Ops.
	Status []int
	// Path selects the calibrated cost constants.
	Path Path
	// Priority orders the request in the global migration lock queues
	// (sim.Resource.AcquirePri): a contended request enqueues ahead of
	// every queued request with a strictly lower priority. 0 is the
	// batch default; latency-sensitive tenants' requests carry their
	// class priority so their faults and promotions are never queued
	// behind a batch tenant's migration batches.
	Priority int
	// Flush performs one TLB shootdown after the last pass.
	Flush bool
	// ClearNextTouch removes the migrate-on-next-touch PTE mark from
	// every page the engine visits (moved or already local).
	ClearNextTouch bool
	// CopyCat, when non-empty, is the accounting category charged for
	// the bulk-copy stage (e.g. kern's "move_pages copy").
	CopyCat string
	// StampPromoGen, when non-zero, is written to PTE.PromoGen for
	// every 4 KiB page the engine physically moves. The promotion paths
	// (AutoNUMA hinting faults) pass the current kswapd scan-period
	// generation here so the demotion scan can recognize freshly
	// promoted pages (hysteresis) and count promote/demote flips.
	StampPromoGen uint32
	// OnCopied, when non-nil, is invoked by Replicate for every op,
	// under the covering chunk lock, right after the op's frame is
	// filled (nil frame for skipped ops). Callers use it to register
	// replica bookkeeping atomically with the copy.
	OnCopied func(op int, f *mem.Frame)
	// Revalidate, when non-nil, is consulted under the chunk lock for
	// each otherwise-movable page with its current source node;
	// returning false skips the page (counted as raced). migrate_pages
	// uses it to re-check its source-node mask, which it resolved
	// during an unlocked gather walk.
	Revalidate func(op Op, src topology.NodeID) bool
}

func (r *Request) setStatus(i, v int) {
	if r.Status != nil {
		r.Status[i] = v
	}
}

// Result summarises one request. Ops are the unit: a huge op counts one
// toward Moved/Local/Busy like a 4 KiB op (Bytes tells them apart).
type Result struct {
	Moved     int     // ops physically migrated
	HugeMoved int     // the subset of Moved that were 2 MiB units
	Local     int     // ops already on their target node
	Absent    int     // ops without a present PTE
	Busy      int     // ops still pinned after every retry pass
	Raced     int     // next-touch pages another thread serviced first
	Retries   int     // retry passes taken for pinned pages
	Bytes     float64 // bytes copied between nodes
}

// Stats aggregates engine activity across requests.
type Stats struct {
	Requests        uint64
	PagesMoved      uint64 // ops moved (huge ops count once; see HugePagesMoved)
	HugePagesMoved  uint64
	PagesLocal      uint64
	PagesAbsent     uint64
	PagesBusy       uint64
	PagesRaced      uint64
	RetryPasses     uint64
	BytesMoved      float64
	BytesReplicated float64
	// Cross-tier traffic (Env.TierOf): ops whose destination sits on a
	// slower tier than their source (TierDown: the demotion direction,
	// e.g. DRAM -> CXL) or a faster one (TierUp: the promotion
	// direction, e.g. CXL -> DRAM), whatever path issued them. Same-
	// tier moves count in neither; on a flat machine both stay zero.
	// Their bytes travel on the TierTraffic events.
	PagesTierDown uint64
	PagesTierUp   uint64
}

// Engine is the batched per-node migration pipeline for one strategy.
// A kernel owns one engine per strategy; they share the kernel's locks
// and channels, so contention between patched and unpatched callers
// still emerges from execution.
type Engine struct {
	env      Env
	strategy Strategy
	Stats    Stats
}

// New creates an engine over the kernel machinery.
func New(env Env, s Strategy) *Engine {
	return &Engine{env: env, strategy: s}
}

// noteTier accounts one physically moved op against the cross-tier
// counters when source and destination sit on different memory tiers.
func (e *Engine) noteTier(src, dst topology.NodeID, bytes float64) {
	st, dt := e.env.TierOf(src), e.env.TierOf(dst)
	dir := 0.0
	switch {
	case dt > st:
		e.Stats.PagesTierDown++
		dir = 1
	case dt < st:
		e.Stats.PagesTierUp++
		dir = -1
	default:
		return
	}
	if bus := e.env.Bus(); bus.Active(telemetry.TopicTierTraffic) {
		bus.Publish(telemetry.Event{
			Topic: telemetry.TopicTierTraffic,
			Node:  src, Dst: dst,
			Pages: 1, Bytes: bytes, Value: dir,
		})
	}
}

// pathCosts carries the per-path calibrated constants.
type pathCosts struct {
	base, baseLocked sim.Time // serialized setup (charged by Engine.SetupPri)
	ctl, ctlLocked   sim.Time // per-page control; ctlLocked under LRU lock
	localCost        sim.Time // per already-local page
	perExamined      bool     // charge ctl per examined page, not per moved
	syncChan         bool     // batched sync channel vs lazy channel
	copyLocked       bool     // copy while holding the chunk lock (fault path)
}

func (e *Engine) costs(path Path) pathCosts {
	p := e.env.Params()
	switch path {
	case PathMigratePages:
		return pathCosts{
			base: p.MigratePagesBase, baseLocked: p.MigratePagesBase,
			ctl: p.MigratePagesCtl, ctlLocked: p.MigratePagesCtlLocked,
			perExamined: true, syncChan: true,
		}
	case PathNextTouch:
		// Fault-time migration copies the page inside the fault handler,
		// which holds the PTE lock: this is what keeps parallel lazy
		// migration of sub-chunk buffers from scaling (Fig. 7).
		return pathCosts{
			ctl: p.NTFaultCtl, ctlLocked: p.NTFaultCtlLocked,
			localCost:  p.NTFaultCtl / 2,
			syncChan:   false,
			copyLocked: true,
		}
	case PathNumaHint:
		// AutoNUMA restores the PTE before migrating, so the copy runs
		// outside the PTE lock, but it shares the lazy channel and
		// per-fault control costs with the next-touch path.
		return pathCosts{
			ctl: p.NumaHintCtl, ctlLocked: p.NumaHintCtlLocked,
			syncChan: false,
		}
	case PathDemotion:
		// Background demotion runs in daemon context: no syscall setup,
		// isolation/writeback-style control per page, lazy channel so it
		// yields the sync channel to foreground migrations.
		return pathCosts{
			ctl: p.DemotionCtl, ctlLocked: p.DemotionCtlLocked,
			syncChan: false,
		}
	default: // PathMovePages
		return pathCosts{
			base: p.MovePagesBase, baseLocked: p.MovePagesBaseLocked,
			ctl: p.MovePagesCtl, ctlLocked: p.MovePagesCtlLocked,
			perExamined: true, syncChan: true,
		}
	}
}

// SetupPri charges the serialized syscall setup cost for a path (task
// lookup, per-CPU pagevec drains) under the global migration lock:
// the dominant fixed cost of move_pages (~160us) that does not
// parallelize (§4.2, §4.4). Callers invoke it before taking mmap_sem,
// matching the kernel's ordering. A contended setup enqueues on the
// lock ahead of every waiter with a strictly lower pri (see
// Request.Priority).
func (e *Engine) SetupPri(p *sim.Proc, path Path, pri int) {
	c := e.costs(path)
	e.env.MigLock().AcquirePri(p, pri)
	p.Sleep(c.baseLocked)
	e.env.MigLock().Release()
	p.Sleep(c.base - c.baseLocked)
}

// Migrate executes one request through the full pipeline and returns
// its outcome. Busy (pinned) pages are retried with backoff up to
// Params.MigrateRetries times before being reported as StatusBusy.
func (e *Engine) Migrate(req *Request) Result {
	p := e.env.Params()
	c := e.costs(req.Path)
	var res Result
	e.Stats.Requests++
	t0 := req.P.Now()

	s := getScratch()
	defer putScratch(s)
	pending := s.pending
	for i := range req.Ops {
		pending = append(pending, i)
	}
	s.pending = pending
	for attempt := 0; ; attempt++ {
		busy := e.pass(req, c, s, pending, &res)
		if len(busy) == 0 {
			break
		}
		if attempt >= p.MigrateRetries {
			// Give up: EBUSY, like the kernel after its retry loop.
			pt := req.Space.PageTable()
			for _, x := range busy {
				req.setStatus(x, StatusBusy)
				if v := req.Ops[x].VPN; req.ClearNextTouch && pt.Get(v).Present() {
					// A failed lazy migration restores access and
					// leaves the page in place, like the kernel fault
					// handler: otherwise the touch could never settle.
					cl := req.Space.ChunkLock(vm.ChunkIndex(v))
					cl.Acquire(req.P)
					pte := pt.Get(v)
					pte.Flags &^= vm.PTENextTouch
					pt.Install(v, pte)
					cl.Release()
				}
			}
			res.Busy = len(busy)
			break
		}
		res.Retries++
		req.P.Sleep(p.MigrateRetryDelay)
		pending = busy
	}

	if req.Flush {
		req.Space.TLBFlush(req.P)
	}
	e.Stats.PagesMoved += uint64(res.Moved)
	e.Stats.HugePagesMoved += uint64(res.HugeMoved)
	e.Stats.PagesLocal += uint64(res.Local)
	e.Stats.PagesAbsent += uint64(res.Absent)
	e.Stats.PagesBusy += uint64(res.Busy)
	e.Stats.PagesRaced += uint64(res.Raced)
	e.Stats.RetryPasses += uint64(res.Retries)
	e.Stats.BytesMoved += res.Bytes
	if res.Moved > 0 {
		if bus := e.env.Bus(); bus.Active(telemetry.TopicMigrateBatch) {
			bus.Publish(telemetry.Event{
				Topic: telemetry.TopicMigrateBatch,
				Node:  telemetry.NoNode, Dst: telemetry.NoNode,
				Task: req.P.ID(), Pages: res.Moved,
				Dur: req.P.Now() - t0, Bytes: res.Bytes,
				Value: float64(req.Path),
			})
		}
	}
	return res
}

// batchSpan returns the end of the batch starting at idx[i] —
// consecutive entries within one PTE chunk, bounded by the pagevec
// size — plus that chunk's index. A huge op is always its own batch (it
// owns its whole chunk).
func (e *Engine) batchSpan(ops []Op, idx []int, i int) (int, uint64) {
	ci := vm.ChunkIndex(ops[idx[i]].VPN)
	if ops[idx[i]].Huge {
		return i + 1, ci
	}
	batchPages := e.env.Params().BatchPages
	j := i + 1
	for j < len(idx) && j-i < batchPages && vm.ChunkIndex(ops[idx[j]].VPN) == ci && !ops[idx[j]].Huge {
		j++
	}
	return j, ci
}

// copyGroups accumulates bulk-copy bytes per (src, dst) node pair in
// first-appearance order. Batches touch at most a handful of node
// pairs, so a linear scan over a small slice beats a per-batch map.
type copyGroups struct {
	keys  [][2]topology.NodeID
	bytes []float64
}

func (g *copyGroups) add(src, dst topology.NodeID, bytes float64) {
	key := [2]topology.NodeID{src, dst}
	for i, k := range g.keys {
		if k == key {
			g.bytes[i] += bytes
			return
		}
	}
	g.keys = append(g.keys, key)
	g.bytes = append(g.bytes, bytes)
}

func (g *copyGroups) reset() {
	g.keys = g.keys[:0]
	g.bytes = g.bytes[:0]
}

// flushCopies issues one migration-channel transfer per accumulated
// node pair, under the request's copy accounting category.
func (e *Engine) flushCopies(req *Request, g *copyGroups, syncChan bool) {
	copyAll := func() {
		for i, key := range g.keys {
			e.env.Copy(req.P, g.bytes[i], req.Core, key[0], key[1], syncChan)
		}
	}
	if req.CopyCat != "" {
		req.P.InCat(req.CopyCat, copyAll)
	} else {
		copyAll()
	}
}

// mov is one classified movable page, or 2 MiB unit (huge), of a
// batch.
type mov struct {
	vpn  vm.VPN
	dst  topology.NodeID
	slot int
	huge bool
}

// reqScratch holds one in-flight request's reusable buffers. Requests
// interleave in simulated time (Migrate sleeps while other procs run),
// so the buffers pool per request rather than living on the Engine.
type reqScratch struct {
	pending []int
	movs    []mov
	groups  copyGroups
}

var scratchPool = sync.Pool{New: func() interface{} { return new(reqScratch) }}

func getScratch() *reqScratch { return scratchPool.Get().(*reqScratch) }

func putScratch(s *reqScratch) {
	s.movs = s.movs[:0]
	s.pending = s.pending[:0]
	s.groups.reset()
	scratchPool.Put(s)
}

// pass runs one gather pass over the pending op indices, batching by
// PTE chunk and pagevec size, and returns the indices left busy.
func (e *Engine) pass(req *Request, c pathCosts, s *reqScratch, pending []int, res *Result) []int {
	var busy []int
	i := 0
	for i < len(pending) {
		j, ci := e.batchSpan(req.Ops, pending, i)
		busy = append(busy, e.batch(req, c, s, pending[i:j], ci, res)...)
		i = j
	}
	return busy
}

// batch migrates one batch of pages sharing a PTE chunk: classify and
// rewrite under the chunk lock, then bulk-copy per node pair outside it.
func (e *Engine) batch(req *Request, c pathCosts, s *reqScratch, idx []int, ci uint64, res *Result) []int {
	p := e.env.Params()
	pt := req.Space.PageTable()

	if e.strategy == Unpatched {
		// The quadratic bug: for every page of the batch, scan the
		// entire destination-node array of the request.
		req.P.Sleep(sim.Time(len(idx)) * sim.Time(len(req.Ops)) * p.UnpatchedScanEntry)
	}

	cl := req.Space.ChunkLock(ci)
	cl.Acquire(req.P)

	// Classify: movable / local / absent / busy.
	movs := s.movs[:0]
	var busy []int
	for _, x := range idx {
		op := req.Ops[x]
		if op.Huge {
			u := pt.Huge(op.VPN)
			switch {
			case !u.Present():
				req.setStatus(x, StatusNoEnt)
				res.Absent++
			case u.Frame.Node == op.Dst:
				res.Local++
				if c.localCost > 0 {
					req.P.Sleep(c.localCost)
				}
				req.setStatus(x, int(op.Dst))
			case u.Flags&vm.PTEPinned != 0:
				// The unit has elevated references: retry, then EBUSY,
				// exactly like a pinned 4 KiB page.
				busy = append(busy, x)
			default:
				movs = append(movs, mov{vpn: op.VPN, dst: op.Dst, slot: x, huge: true})
			}
			continue
		}
		pte := pt.Get(op.VPN)
		if !pte.Present() {
			req.setStatus(x, StatusNoEnt)
			res.Absent++
			continue
		}
		if req.ClearNextTouch && pte.Flags&vm.PTENextTouch == 0 {
			// A lazy request whose mark is already gone: another
			// toucher serviced this page between fault classification
			// and now. Leave it where the first toucher put it.
			req.setStatus(x, int(pte.Frame.Node))
			res.Raced++
			continue
		}
		if pte.Frame.Node == op.Dst {
			// Already on the target node: no isolation needed, so
			// pinning is irrelevant (the kernel resolves the status
			// before attempting isolation).
			res.Local++
			if req.ClearNextTouch {
				pte.Flags &^= vm.PTENextTouch
				pt.Install(op.VPN, pte)
			}
			if c.localCost > 0 {
				req.P.Sleep(c.localCost)
			}
			req.setStatus(x, int(op.Dst))
			continue
		}
		if pte.Flags&vm.PTEPinned != 0 {
			// Isolation failed (DMA-pinned, like get_user_pages
			// references): retry after the pass.
			busy = append(busy, x)
			continue
		}
		if req.Revalidate != nil && !req.Revalidate(op, pte.Frame.Node) {
			// The page changed nodes since the caller gathered it and
			// no longer qualifies under the caller's mask.
			req.setStatus(x, int(pte.Frame.Node))
			res.Raced++
			continue
		}
		movs = append(movs, mov{vpn: op.VPN, dst: op.Dst, slot: x})
	}

	// Control: page isolation, PTE updates. Partially under the global
	// LRU lock — the serialized fraction that limits threaded scaling.
	n := len(movs)
	if c.perExamined {
		n = len(idx)
	}
	if n > 0 {
		e.env.LRULock().AcquirePri(req.P, req.Priority)
		req.P.Sleep(sim.Time(n) * c.ctlLocked)
		e.env.LRULock().Release()
		req.P.Sleep(sim.Time(n) * (c.ctl - c.ctlLocked))
	}

	// Rewrite: allocate destinations, copy bytes, swap PTEs while the
	// chunk is locked, accumulating bytes per (src, dst) node pair. Each
	// page is re-read here rather than carried from classification: the
	// lock-free paths (Touch, PinRange, Madvise) may have set flag bits
	// during the control-stage sleep, and the rewrite must keep them.
	s.movs = movs
	groups := &s.groups
	groups.reset()
	mover, _ := req.Space.(PageMover)
	for _, m := range movs {
		if m.huge {
			e.moveUnit(req, pt, m, groups, res)
			continue
		}
		pte := pt.Get(m.vpn)
		src := pte.Frame.Node
		newF := e.env.AllocFrame(m.dst)
		if pte.Frame.Data != nil {
			copy(newF.Data, pte.Frame.Data)
		}
		e.env.FreeFrame(pte.Frame)
		e.env.NoteMigration(newF.Node)
		pte.Frame = newF
		// Arrival counts as a fresh LRU insertion for the demotion
		// scan's clock aging; promotions additionally stamp the current
		// scan-period generation for hysteresis.
		pte.Age = 0
		if req.StampPromoGen != 0 {
			pte.PromoGen = req.StampPromoGen
		}
		if req.ClearNextTouch {
			pte.Flags &^= vm.PTENextTouch
		}
		pt.Install(m.vpn, pte)
		req.setStatus(m.slot, int(newF.Node))
		groups.add(src, newF.Node, model.PageSize)
		e.noteTier(src, newF.Node, model.PageSize)
		if mover != nil && src != newF.Node {
			mover.NotePageMove(m.vpn, src, newF.Node)
		}
		res.Moved++
		res.Bytes += model.PageSize
	}
	// Bulk copy: one transfer per node pair through the migration
	// channel. The batched syscall paths copy outside the PTE lock; the
	// fault path copies while holding it (see pathCosts.copyLocked).
	if c.copyLocked {
		e.flushCopies(req, groups, c.syncChan)
		cl.Release()
	} else {
		cl.Release()
		e.flushCopies(req, groups, c.syncChan)
	}
	return busy
}

// moveUnit moves one classified 2 MiB unit to m.dst under the batch's
// chunk lock: it releases the source unit first, so a nearly-full node
// can swap units in place, and rewrites the unit's entry. It stays out
// of line so that batch's frame, which sits under a migrating task's
// deepest stack, does not grow (see PageTable.Get).
//
//go:noinline
func (e *Engine) moveUnit(req *Request, pt *vm.PageTable, m mov, groups *copyGroups, res *Result) {
	u := pt.Huge(m.vpn)
	src := u.Frame.Node
	e.env.FreeHugeFrame(u.Frame)
	u.Frame = e.env.AllocHugeFrame(m.dst)
	pt.SetHuge(m.vpn, u)
	dst := u.Frame.Node
	e.env.NoteMigration(dst)
	req.setStatus(m.slot, int(dst))
	groups.add(src, dst, model.HugePageSize)
	e.noteTier(src, dst, model.HugePageSize)
	res.Moved++
	res.HugeMoved++
	res.Bytes += model.HugePageSize
}

// Replicate runs the copy-out half of the pipeline for read-only page
// replication: for every op it allocates a frame on the destination
// node and bulk-copies the source page into it without unmapping the
// source. Request.OnCopied receives every op's frame (nil where the
// source page was absent or already resides on the destination) under
// the chunk lock, so the caller's protection changes and replica
// bookkeeping are atomic with the copy. A page's ops are never split
// across batches: all its copies land inside one lock hold.
func (e *Engine) Replicate(req *Request) {
	pt := req.Space.PageTable()
	e.Stats.Requests++
	s := getScratch()
	defer putScratch(s)
	idx := s.pending
	for i := range req.Ops {
		idx = append(idx, i)
	}
	s.pending = idx

	i := 0
	for i < len(req.Ops) {
		j, ci := e.batchSpan(req.Ops, idx, i)
		// Never cut a batch mid-page: the caller's copied-but-writable
		// window depends on a page's last copy sharing the first one's
		// lock hold.
		for j < len(req.Ops) && req.Ops[j].VPN == req.Ops[j-1].VPN {
			j++
		}

		cl := req.Space.ChunkLock(ci)
		cl.Acquire(req.P)
		groups := &s.groups
		groups.reset()
		for x := i; x < j; x++ {
			op := req.Ops[x]
			pte := pt.Get(op.VPN)
			if !pte.Present() || pte.Frame.Node == op.Dst {
				if req.OnCopied != nil {
					req.OnCopied(x, nil)
				}
				continue
			}
			src := pte.Frame.Node
			f := e.env.AllocFrame(op.Dst)
			if pte.Frame.Data != nil {
				copy(f.Data, pte.Frame.Data)
			}
			groups.add(src, f.Node, model.PageSize)
			e.Stats.BytesReplicated += model.PageSize
			if req.OnCopied != nil {
				req.OnCopied(x, f)
			}
		}
		cl.Release()
		e.flushCopies(req, groups, false)
		i = j
	}

	if req.Flush {
		req.Space.TLBFlush(req.P)
	}
}
