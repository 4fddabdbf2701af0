// Package placement is the single placement-decision layer of the
// simulated kernel: every consumer that needs to answer "which node
// gets this frame?" goes through it.
//
// Before this package existed the answer was re-derived independently
// in five places — first-touch fault allocation, the mempolicy paths,
// the migration engine's destination fallback, AutoNUMA promotion, and
// replica placement — each with its own policy switch or ad-hoc
// distance loop. The Placer centralizes all of them on two structures:
//
//   - Zonelists: for every node, the machine's nodes ordered by
//     (memory tier, SLIT distance) from it — the node itself first,
//     then faster-or-equal tiers before slower ones, by distance
//     within a tier, ties broken by id — like the kernel's
//     node_zonelists on a tiered machine. Every fallback walk — full
//     target node, pressured target node, demotion target, replica
//     placement — is a walk of one zonelist, so allocations under
//     pressure spill toward near tiers before far ones.
//
//   - Watermarks: per-node min/low/high thresholds (stored in
//     mem.Phys, installed here from model.Params fractions).
//     Allocation proceeds in passes, mirroring get_page_from_freelist:
//     the first pass only takes nodes comfortably above their low
//     watermark; if none qualifies the walk retries down to the min
//     watermark, then takes any node with a free frame. The kswapd
//     daemons (internal/kern) poll mem.Phys.UnderPressure on their
//     wake period to notice nodes this walk has pushed to the low
//     watermark.
//
// Memory tiers (model.Params.NodeTier/TierClasses) are first-class:
// slow-tier nodes (tier > 0, e.g. simulated CXL expanders) are
// demotion-only allocation targets. The policy switch drops slow nodes
// from any nodemask that also names a fast node, first-touch never
// resolves to a slow node, and the allocation walk never spills onto a
// tier slower than the one the caller asked for — only an explicit
// all-slow binding, or the demotion daemons, place pages there.
//
// Policy resolution also lives here: vm.Policy is pure data, and
// Placer.Target is the only switch over policy kinds, including
// PolWeightedInterleave (MPOL_WEIGHTED_INTERLEAVE). Pressure gates for
// the other movers round out the surface: AllowPromotion (AutoNUMA
// skips promotion into pressured nodes), DemotionTarget (kswapd's
// tier choice: the next tier down when one exists, else within-tier —
// warm pages to the nearest unpressured distance group, genuinely cold
// pages to the farthest), and ReplicaNodes (replication skips
// pressured and slow-tier nodes).
//
// The package sits below internal/kern: it sees the machine, the
// physical allocator and the policies, never processes or page tables.
package placement

import (
	"sort"

	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Placer owns every node-selection decision for one machine.
type Placer struct {
	M    *topology.Machine
	Phys *mem.Phys

	anySlow bool // any node on a slow tier (tier > 0)
	// zonelists rows are built lazily on first use (zonelist): a
	// 1024-node machine only pays the O(n log n) sort for nodes that
	// actually allocate, keeping New O(n). Tiers are static after New
	// (SetTier has no other caller), so a built row never goes stale.
	zonelists [][]topology.NodeID
	// demoGroups caches DemotionTarget's per-source candidate structure
	// — the next-tier-down node set, split into distance groups in
	// zonelist order — which is likewise static after New. Only the
	// pressure/free-frame scan inside the chosen group runs per call.
	demoGroups [][][]topology.NodeID
}

// New builds the placer for a machine: it installs each node's memory
// tier (from p.NodeTier) and watermarks (from the Watermark*Frac
// fractions of p) on phys, and computes the per-node (tier, distance)
// zonelists.
func New(m *topology.Machine, phys *mem.Phys, p *model.Params) *Placer {
	pl := &Placer{M: m, Phys: phys}
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		phys.SetTier(topology.NodeID(i), p.TierOf(i))
		if p.TierOf(i) > 0 {
			pl.anySlow = true
		}
	}
	pl.zonelists = make([][]topology.NodeID, n)
	pl.demoGroups = make([][][]topology.NodeID, n)
	for i := 0; i < n; i++ {
		total := phys.Stats(topology.NodeID(i)).Total
		phys.SetWatermarks(topology.NodeID(i), mem.Watermarks{
			Min:  int64(float64(total) * p.WatermarkMinFrac),
			Low:  int64(float64(total) * p.WatermarkLowFrac),
			High: int64(float64(total) * p.WatermarkHighFrac),
		})
	}
	return pl
}

// TierOf returns a node's memory tier id (0 = DRAM, > 0 = slow).
func (pl *Placer) TierOf(n topology.NodeID) int { return pl.Phys.TierOf(n) }

// slow reports whether a node belongs to a slow-memory tier.
func (pl *Placer) slow(n topology.NodeID) bool { return pl.Phys.TierOf(n) > 0 }

// less orders candidate nodes from src: src itself first, then by
// tier, then distance, then id. On a flat (single-tier) machine this
// is the pure distance order the pre-tiering zonelists used.
func (pl *Placer) less(src, a, b topology.NodeID) bool {
	if a == src || b == src {
		return a == src && b != src
	}
	ta, tb := pl.Phys.TierOf(a), pl.Phys.TierOf(b)
	if ta != tb {
		return ta < tb
	}
	da, db := pl.M.Distance(src, a), pl.M.Distance(src, b)
	if da != db {
		return da < db
	}
	return a < b
}

// zonelist returns n's fallback order, building the row on first use.
// The node itself first (even on a slow tier: an explicit target is
// always the preferred landing spot), then (tier, distance from n,
// id): the fallback order every walk uses.
func (pl *Placer) zonelist(n topology.NodeID) []topology.NodeID {
	if zl := pl.zonelists[n]; zl != nil {
		return zl
	}
	num := pl.M.NumNodes()
	zl := make([]topology.NodeID, num)
	for j := range zl {
		zl[j] = topology.NodeID(j)
	}
	sort.Slice(zl, func(a, b int) bool { return pl.less(n, zl[a], zl[b]) })
	pl.zonelists[n] = zl
	return zl
}

// Zonelist returns the allocation fallback order for a node: the node
// itself, then every other node by (tier, distance), ties by id. The
// returned slice is shared; callers must not mutate it.
func (pl *Placer) Zonelist(n topology.NodeID) []topology.NodeID { return pl.zonelist(n) }

// Resolve returns the effective policy of a page: the VMA policy
// unless it is PolDefault, then the process policy.
func (pl *Placer) Resolve(vmaPol, procPol vm.Policy) vm.Policy {
	if vmaPol.Kind == vm.PolDefault {
		return procPol
	}
	return vmaPol
}

// allocPolicy returns the policy with slow-tier nodes dropped from its
// nodemask when the mask also names a fast-tier node: slow memory is a
// demotion-only allocation target, and only a mask consisting entirely
// of slow nodes (an explicit CXL binding) may place pages there. The
// weights stay parallel to the surviving nodes.
func (pl *Placer) allocPolicy(pol vm.Policy) vm.Policy {
	if !pl.anySlow { // flat machine: no node can be slow
		return pol
	}
	hasFast, hasSlow := false, false
	for _, n := range pol.Nodes {
		if pl.slow(n) {
			hasSlow = true
		} else {
			hasFast = true
		}
	}
	if !hasSlow || !hasFast {
		return pol
	}
	out := vm.Policy{Kind: pol.Kind, Nodes: make([]topology.NodeID, 0, len(pol.Nodes))}
	if pol.Weights != nil {
		out.Weights = make([]int, 0, len(pol.Nodes))
	}
	for i, n := range pol.Nodes {
		if pl.slow(n) {
			continue
		}
		out.Nodes = append(out.Nodes, n)
		if out.Weights != nil {
			out.Weights = append(out.Weights, pol.Weight(i))
		}
	}
	return out
}

// fastLocal returns local unless it sits on a slow tier (a thread
// scheduled onto a CXL node's cores), then the nearest fast-tier node:
// first-touch never places pages on slow memory.
func (pl *Placer) fastLocal(local topology.NodeID) topology.NodeID {
	if !pl.anySlow || !pl.slow(local) {
		return local
	}
	for _, n := range pl.zonelist(local) {
		if !pl.slow(n) {
			return n
		}
	}
	return local // all-slow machine: nothing faster exists
}

// Target resolves a mempolicy to the preferred node for page v faulted
// from local — the one policy switch in the repository. Interleaving
// is keyed on the VPN so it is stable across faults, like Linux's
// offset-based interleave; weighted interleave distributes VPNs over
// the node set in proportion to the policy weights. Slow-tier nodes
// are demotion-only: they are dropped from mixed nodemasks and
// first-touch never resolves to them (see allocPolicy/fastLocal).
func (pl *Placer) Target(pol vm.Policy, v vm.VPN, local topology.NodeID) topology.NodeID {
	pol = pl.allocPolicy(pol)
	if len(pol.Nodes) == 0 {
		return pl.fastLocal(local)
	}
	switch pol.Kind {
	case vm.PolBind, vm.PolInterleave:
		return pol.Nodes[uint64(v)%uint64(len(pol.Nodes))]
	case vm.PolWeightedInterleave:
		slot := uint64(v) % uint64(pol.TotalWeight())
		for i := range pol.Nodes {
			w := uint64(pol.Weight(i))
			if slot < w {
				return pol.Nodes[i]
			}
			slot -= w
		}
		return pol.Nodes[len(pol.Nodes)-1]
	case vm.PolPreferred:
		return pol.Nodes[0]
	default:
		return pl.fastLocal(local)
	}
}

// Place is the first-touch entry point: resolve the page's effective
// policy (VMA policy, then process default) to the preferred node.
func (pl *Placer) Place(vmaPol, procPol vm.Policy, v vm.VPN, local topology.NodeID) topology.NodeID {
	return pl.Target(pl.Resolve(vmaPol, procPol), v, local)
}

// pick walks the target's zonelist in watermark passes — low, then
// min, then bare availability — and returns the first node that can
// take need frames while staying at or above the pass's floor. need is
// 1 for a base page, 512 for a huge unit.
//
// The walk never lands on a tier slower than the target's: slow-tier
// nodes are demotion-only, so a DRAM allocation under pressure spills
// across the DRAM tier (near nodes first) and then fails toward the
// min pass rather than silently leaking onto CXL.
func (pl *Placer) pick(target topology.NodeID, need int64) (topology.NodeID, bool) {
	// Fast path: the target itself clears its low watermark. The full
	// walk's first probe is exactly this check (a zonelist starts with
	// its own node, whose tier never exceeds itself), so bailing here is
	// behavior-identical and skips the walk setup on the common path.
	if pl.Phys.FreeFrames(target)-need >= pl.Phys.WatermarksOf(target).Low {
		return target, true
	}
	zl := pl.zonelist(target)
	maxTier := pl.Phys.TierOf(target)
	for pass := 0; pass < 3; pass++ {
		for _, n := range zl {
			if pl.Phys.TierOf(n) > maxTier {
				continue
			}
			free := pl.Phys.FreeFrames(n)
			var floor int64
			switch pass {
			case 0:
				floor = pl.Phys.WatermarksOf(n).Low
			case 1:
				floor = pl.Phys.WatermarksOf(n).Min
			}
			if free-need >= floor {
				return n, true
			}
		}
	}
	return 0, false
}

// AllocPage allocates one frame as near target as the watermarks and
// the tier map allow: target first, then its zonelist, skipping
// pressured nodes until no unpressured node remains, never spilling
// onto a slower tier than the target's. Returns nil only when no
// allowed node has a free frame.
func (pl *Placer) AllocPage(target topology.NodeID) *mem.Frame {
	n, ok := pl.pick(target, 1)
	if !ok {
		return nil
	}
	f, err := pl.Phys.Alloc(n)
	if err != nil {
		return nil
	}
	return f
}

// AllocHugePage reserves a 2 MiB unit (one representative frame plus
// its 511-frame footprint) as near target as the watermarks and the
// tier map allow. Returns nil when no allowed node can host a whole
// unit — the caller falls back to base pages, like a failed THP
// allocation.
func (pl *Placer) AllocHugePage(target topology.NodeID) *mem.Frame {
	n, ok := pl.pick(target, model.PTEChunkPages)
	if !ok {
		return nil
	}
	if err := pl.Phys.AllocFootprint(n, model.PTEChunkPages-1); err != nil {
		return nil
	}
	f, err := pl.Phys.Alloc(n)
	if err != nil {
		pl.Phys.ReleaseFootprint(n, model.PTEChunkPages-1)
		return nil
	}
	return f
}

// AllowPromotion reports whether dst can take promoted pages: AutoNUMA
// skips promotion into nodes at or below their low watermark (pulling
// hot pages into a pressured node only forces kswapd to demote
// something else right back out).
func (pl *Placer) AllowPromotion(dst topology.NodeID) bool {
	return !pl.Phys.UnderPressure(dst)
}

// DemotionTarget returns the node kswapd should demote pages from
// `from` to. The tier map decides the candidate set first: when a
// slower tier exists below from's, demotion targets the *next tier
// down* (DRAM kswapd demotes to CXL, and on a 3-tier machine a CXL
// node demotes onward to the tier below it, like the kernel's
// node_demotion[] chain); a node on the *bottom* tier demotes only
// within its own tier — moving pages back up would promote them
// without evidence, so when no within-tier sibling can take them the
// daemon simply leaves the pages to age in place. Within the candidate set, page temperature picks
// the distance group: warm pages (cold=false, unreferenced for one
// scan period — likely to be touched again) go to the *nearest* group
// with an unpressured node, cold pages (cold=true, unreferenced for
// two or more periods) to the *farthest* — on a flat machine the two
// choices are what creates tiers in the first place. Within the chosen
// group the node with the most free frames wins (ties by id). Returns
// false when every candidate is pressured too — demoting then would
// only shift the pressure around.
func (pl *Placer) DemotionTarget(from topology.NodeID, cold bool) (topology.NodeID, bool) {
	groups := pl.demotionGroups(from)
	// Cold pages walk the groups farthest-first; warm pages nearest-
	// first. The cached group order is nearest-first, so cold simply
	// iterates backwards instead of reversing (and mutating) the cache.
	for gi := 0; gi < len(groups); gi++ {
		g := groups[gi]
		if cold {
			g = groups[len(groups)-1-gi]
		}
		best, bestFree, found := topology.NodeID(0), int64(-1), false
		for _, n := range g {
			if pl.Phys.UnderPressure(n) {
				continue
			}
			if free := pl.Phys.FreeFrames(n); free > bestFree {
				best, bestFree, found = n, free, true
			}
		}
		if found {
			return best, true
		}
	}
	return 0, false
}

// demotionGroups returns from's demotion candidates — the next tier
// down when one exists, else from's own tier — split into distance
// groups in zonelist order, nearest group first. Built on first use
// and cached: the tier map and the distances are static after New, so
// every kswapd tick on a big machine reuses the structure instead of
// re-deriving it O(nodes) per demoted page.
func (pl *Placer) demotionGroups(from topology.NodeID) [][]topology.NodeID {
	if g := pl.demoGroups[from]; g != nil {
		return g
	}
	fromTier := pl.Phys.TierOf(from)
	// Next tier down: the smallest tier id above from's with any node.
	nextTier := -1
	for n := 0; n < pl.M.NumNodes(); n++ {
		if t := pl.Phys.TierOf(topology.NodeID(n)); t > fromTier && (nextTier < 0 || t < nextTier) {
			nextTier = t
		}
	}
	wantTier := fromTier // within-tier (flat machines, slow-tier sources)
	if nextTier >= 0 {
		wantTier = nextTier
	}
	// Distance-group boundaries of the candidate tier's nodes, in
	// zonelist (distance) order past the node itself.
	var cands []topology.NodeID
	for _, n := range pl.zonelist(from) {
		if n != from && pl.Phys.TierOf(n) == wantTier {
			cands = append(cands, n)
		}
	}
	groups := [][]topology.NodeID{}
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && pl.M.Distance(from, cands[j]) == pl.M.Distance(from, cands[i]) {
			j++
		}
		groups = append(groups, cands[i:j])
		i = j
	}
	pl.demoGroups[from] = groups
	return groups
}

// ReplicaNodes returns the nodes that should receive a read-only
// replica of a page homed on home: every other fast-tier node above
// its low watermark, in id order (replicating into a pressured node
// would evict something more useful than the copy, and a replica on
// slow memory would serve reads slower than the remote primary).
func (pl *Placer) ReplicaNodes(home topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, pl.M.NumNodes()-1)
	for n := 0; n < pl.M.NumNodes(); n++ {
		id := topology.NodeID(n)
		if id == home || pl.Phys.UnderPressure(id) || pl.slow(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}
