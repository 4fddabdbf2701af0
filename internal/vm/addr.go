// Package vm implements the virtual-memory data structures of the
// simulated kernel: sparse two-level page tables with PTE flag bits
// (including the Migrate-on-next-touch mark), VMAs with split/merge,
// NUMA memory policies, and whole address spaces. The package is pure
// data structure; all timing costs are charged by package kern.
package vm

import "numamig/internal/model"

// Addr is a virtual address in a simulated address space.
type Addr uint64

// VPN is a virtual page number (Addr >> PageShift).
type VPN uint64

// PageOf returns the page number containing a.
func PageOf(a Addr) VPN { return VPN(a >> model.PageShift) }

// Base returns the first address of page v.
func (v VPN) Base() Addr { return Addr(v) << model.PageShift }

// PageFloor rounds a down to a page boundary.
func PageFloor(a Addr) Addr { return a &^ (model.PageSize - 1) }

// PageCeil rounds a up to a page boundary.
func PageCeil(a Addr) Addr { return (a + model.PageSize - 1) &^ (model.PageSize - 1) }

// PagesIn returns the number of pages covered by [start, start+length).
func PagesIn(start Addr, length int64) int {
	if length <= 0 {
		return 0
	}
	first := PageOf(start)
	last := PageOf(start + Addr(length) - 1)
	return int(last-first) + 1
}

// Prot is a protection mask.
type Prot uint8

// Protection bits.
const (
	ProtRead  Prot = 1 << iota // readable
	ProtWrite                  // writable
	ProtNone  Prot = 0         // no access
)

// ProtRW is read+write.
const ProtRW = ProtRead | ProtWrite

// Allows reports whether p permits the requested access.
func (p Prot) Allows(write bool) bool {
	if write {
		return p&ProtWrite != 0
	}
	return p&ProtRead != 0
}

// Flags returns the PTE hardware permission bits (PTERead, PTEWrite)
// that p grants.
func (p Prot) Flags() uint8 {
	var f uint8
	if p&ProtRead != 0 {
		f |= PTERead
	}
	if p&ProtWrite != 0 {
		f |= PTEWrite
	}
	return f
}

func (p Prot) String() string {
	s := [2]byte{'-', '-'}
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	return string(s[:])
}
