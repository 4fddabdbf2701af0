package tenancy

import (
	"testing"

	"numamig/internal/topology"
)

// The fuzz harness drives a bus-less Ledger (accounting-only mode)
// through an arbitrary op stream decoded from the fuzz input and
// checks it against a naive reference counter after every op: per-node
// residency, totals, the fast-tier aggregate, cap-violation counts,
// OverCapOn's answer on every node, and the Exit drain all have
// independent shadow implementations here.
// Inputs are clamped to the ledger's documented domain (non-negative
// deltas, releases bounded by residency) — the panics on violations of
// that domain are asserted separately in TestLedgerPanics.

const (
	fuzzNodes     = 4
	fuzzFastNodes = 2
	fuzzMaxPages  = 64
)

func fuzzTierOf(n topology.NodeID) int {
	if int(n) < fuzzFastNodes {
		return 0
	}
	return 1
}

// refTenant is the naive shadow of one tenant: a plain per-node
// counter with no aggregate caching.
type refTenant struct {
	resident [fuzzNodes]int
	capPages int
	live     bool
}

func (r *refTenant) total() int {
	n := 0
	for _, v := range r.resident {
		n += v
	}
	return n
}

func (r *refTenant) fast() int {
	n := 0
	for i := 0; i < fuzzFastNodes; i++ {
		n += r.resident[i]
	}
	return n
}

// refOver recomputes how many of pages newly-fast pages land past the
// cap, from the shadow counters alone (fastAfter includes pages).
func (r *refTenant) refOver(fastAfter, pages int) int {
	if r.capPages <= 0 || fastAfter <= r.capPages {
		return 0
	}
	over := fastAfter - r.capPages
	if over > pages {
		over = pages
	}
	return over
}

// checkTenant compares one live ledger tenant against its shadow.
func checkTenant(t *testing.T, op int, ten *Tenant, ref *refTenant) {
	t.Helper()
	if ten.Resident() != ref.total() {
		t.Fatalf("op %d: tenant %d total %d, reference %d", op, ten.ID, ten.Resident(), ref.total())
	}
	if ten.FastResident() != ref.fast() {
		t.Fatalf("op %d: tenant %d fast %d, reference %d", op, ten.ID, ten.FastResident(), ref.fast())
	}
	for n := topology.NodeID(0); n < fuzzNodes; n++ {
		got, want := ten.ResidentOn(n), ref.resident[n]
		if got != want {
			t.Fatalf("op %d: tenant %d node %d residency %d, reference %d", op, ten.ID, n, got, want)
		}
		if got < 0 {
			t.Fatalf("op %d: tenant %d node %d residency went negative: %d", op, ten.ID, n, got)
		}
	}
	if ten.FastResident() < 0 || ten.Resident() < 0 {
		t.Fatalf("op %d: tenant %d aggregate went negative (total %d fast %d)", op, ten.ID, ten.Resident(), ten.FastResident())
	}
}

func FuzzLedger(f *testing.F) {
	// Seed the interesting shapes: a full lifecycle, a cap breach with a
	// rescuing move off the fast tier, interleaved multi-tenant churn,
	// and an exit with residency left to drain.
	f.Add([]byte("\x00\x00\x01\x40\x01\x00\x00\x20\x02\x00\x00\x10\x04\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x00\x10\x01\x00\x00\x30\x03\x00\x02\x30\x04\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x00\x20\x00\x00\x01\x00\x01\x00\x03\x18\x01\x01\x01\x3f" +
		"\x03\x01\x01\x02\x04\x00\x00\x00\x02\x00\x01\x08\x04\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x00\x08\x01\x00\x01\x28\x04\x00\x00\x00"))
	// One tenant crossing its cap both ways through Charge, Release and
	// Move, then exiting at the cap; two at-cap tenants where
	// OverCapOn must answer the first-admitted.
	f.Add([]byte("\x00\x00\x00\x10\x01\x00\x00\x10\x02\x00\x00\x01\x01\x00\x01\x01" +
		"\x03\x02\x00\x02\x03\x02\x02\x00\x04\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x00\x04\x00\x00\x00\x04\x01\x01\x00\x04\x01\x00\x01\x04" +
		"\x01\x00\x00\x01\x04\x00\x00\x00\x02\x00\x00\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLedger(nil, fuzzTierOf)
		refs := make(map[int]*refTenant)
		var live []int // admission order, like the ledger's own scan
		refViolations := 0
		nextID := 0

		for op := 0; len(data) >= 4; op++ {
			kind, a, b, c := data[0]%5, data[1], data[2], data[3]
			data = data[4:]

			pickLive := func() (int, *Tenant, *refTenant) {
				if len(live) == 0 {
					return -1, nil, nil
				}
				id := live[int(a)%len(live)]
				return id, l.Lookup(id), refs[id]
			}

			switch kind {
			case 0: // admit
				id := nextID
				nextID++
				class := Class(b % 2)
				capPages := int(c) % 128
				l.Admit(id, "fuzz", class, capPages)
				refs[id] = &refTenant{capPages: capPages, live: true}
				live = append(live, id)

			case 1: // charge
				id, ten, ref := pickLive()
				if ten == nil {
					continue
				}
				node := topology.NodeID(b) % fuzzNodes
				pages := int(c) % fuzzMaxPages
				if fuzzTierOf(node) == 0 {
					refViolations += ref.refOver(ref.fast()+pages, pages)
				}
				ref.resident[node] += pages
				l.Charge(ten, node, pages)
				checkTenant(t, op, ten, ref)
				_ = id

			case 2: // release, clamped to what is resident
				_, ten, ref := pickLive()
				if ten == nil {
					continue
				}
				node := topology.NodeID(b) % fuzzNodes
				pages := int(c) % fuzzMaxPages
				if pages > ref.resident[node] {
					pages = ref.resident[node]
				}
				ref.resident[node] -= pages
				l.Release(ten, node, pages)
				checkTenant(t, op, ten, ref)

			case 3: // move, clamped to the source residency
				_, ten, ref := pickLive()
				if ten == nil {
					continue
				}
				src := topology.NodeID(b) % fuzzNodes
				dst := topology.NodeID(c) % fuzzNodes
				pages := int(a) % fuzzMaxPages
				if pages > ref.resident[src] {
					pages = ref.resident[src]
				}
				if src != dst && pages > 0 && fuzzTierOf(dst) == 0 && fuzzTierOf(src) != 0 {
					refViolations += ref.refOver(ref.fast()+pages, pages)
				}
				if src != dst {
					ref.resident[src] -= pages
					ref.resident[dst] += pages
				}
				before := ten.Resident()
				l.Move(ten, src, dst, pages)
				if ten.Resident() != before {
					t.Fatalf("op %d: move changed tenant %d total: %d -> %d", op, ten.ID, before, ten.Resident())
				}
				checkTenant(t, op, ten, ref)

			case 4: // exit: the drain must equal charged minus released
				id, ten, ref := pickLive()
				if ten == nil {
					continue
				}
				want := ref.total()
				got := l.Exit(ten)
				if got != want {
					t.Fatalf("op %d: tenant %d exit drained %d, reference charged-minus-released is %d", op, id, got, want)
				}
				if ten.Resident() != 0 || ten.FastResident() != 0 || ten.Live() {
					t.Fatalf("op %d: tenant %d not drained after exit (total %d fast %d live %v)",
						op, id, ten.Resident(), ten.FastResident(), ten.Live())
				}
				ref.live = false
				for i, v := range live {
					if v == id {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}

			if l.CapViolations != refViolations {
				t.Fatalf("op %d: ledger counts %d cap violations, reference %d", op, l.CapViolations, refViolations)
			}
			atCap := 0
			for _, id := range live {
				if r := refs[id]; r.capPages > 0 && r.fast() >= r.capPages {
					atCap++
				}
			}
			if l.atCap != atCap {
				t.Fatalf("op %d: ledger counts %d tenants at cap, reference %d", op, l.atCap, atCap)
			}
			for n := topology.NodeID(0); n < fuzzNodes; n++ {
				want := -1
				for _, id := range live {
					if r := refs[id]; r.capPages > 0 && r.fast() >= r.capPages && r.resident[n] > 0 {
						want = id
						break
					}
				}
				got := -1
				if ten := l.OverCapOn(n); ten != nil {
					got = ten.ID
				}
				if got != want {
					t.Fatalf("op %d: OverCapOn(%d) is tenant %d, reference first-admitted scan %d (-1: none)", op, n, got, want)
				}
			}
		}

		// Drain every still-live tenant: exits must return exactly what
		// remains charged, and the ledger's lifecycle counters must agree
		// with the shadow's.
		for _, id := range live {
			ten, ref := l.Lookup(id), refs[id]
			if got, want := l.Exit(ten), ref.total(); got != want {
				t.Fatalf("final exit of tenant %d drained %d, reference %d", id, got, want)
			}
		}
		if l.Admitted != nextID || l.Exited != nextID {
			t.Fatalf("lifecycle counters: admitted %d exited %d, want %d each", l.Admitted, l.Exited, nextID)
		}
	})
}

// TestLedgerPanics pins the domain contract the fuzz harness clamps
// around: negative deltas, over-releases, over-moves, double admission
// and double exit all panic rather than corrupt the books.
func TestLedgerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}

	l := NewLedger(nil, fuzzTierOf)
	ten := l.Admit(0, "t", ClassBatch, 8)
	l.Charge(ten, 0, 4)

	mustPanic("negative charge", func() { l.Charge(ten, 0, -1) })
	mustPanic("negative release", func() { l.Release(ten, 0, -1) })
	mustPanic("negative move", func() { l.Move(ten, 0, 1, -1) })
	mustPanic("over-release", func() { l.Release(ten, 0, 5) })
	mustPanic("over-move", func() { l.Move(ten, 0, 1, 5) })
	mustPanic("release on empty node", func() { l.Release(ten, 1, 1) })
	mustPanic("double admit", func() { l.Admit(0, "dup", ClassBatch, 0) })

	if got := l.Exit(ten); got != 4 {
		t.Fatalf("exit drained %d, want 4", got)
	}
	mustPanic("double exit", func() { l.Exit(ten) })
}
