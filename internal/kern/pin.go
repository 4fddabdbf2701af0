package kern

import (
	"fmt"

	"numamig/internal/model"
	"numamig/internal/sim"
	"numamig/internal/vm"
)

// Page pinning models elevated page references (get_user_pages, DMA
// registrations): the migration engine cannot isolate a pinned page, so
// move_pages retries it with backoff and eventually reports -EBUSY,
// like the kernel's EAGAIN loop. Tests and workloads use PinRange to
// provoke the busy path deterministically.

// PinRange pins every resident page of [addr, addr+length), making them
// non-migratable until unpinned. A 2 MiB huge page whose chunk overlaps
// the range is pinned as a unit and counts model.PTEChunkPages pages.
// Returns the number of pages pinned.
func (t *Task) PinRange(addr vm.Addr, length int64) (int, error) {
	return t.setPinned(addr, length, true)
}

// UnpinRange releases the pin on every resident page of the range.
// Returns the number of pages unpinned.
func (t *Task) UnpinRange(addr vm.Addr, length int64) (int, error) {
	return t.setPinned(addr, length, false)
}

func (t *Task) setPinned(addr vm.Addr, length int64, pinned bool) (int, error) {
	k := t.Proc.K
	k.Stats.Syscalls++
	t.P.Sleep(k.P.SyscallBase)
	if length <= 0 {
		return 0, nil
	}
	t.Proc.MmapSem.RLock(t.P)
	defer t.Proc.MmapSem.RUnlock()
	if t.Proc.Space.Find(addr) == nil {
		return 0, fmt.Errorf("kern: pin of unmapped address %#x", addr)
	}
	first, last := vm.PageOf(addr), vm.PageOf(addr+vm.Addr(length)-1)+1
	var set, clear uint8 = vm.PTEPinned, 0
	if !pinned {
		set, clear = 0, vm.PTEPinned
	}
	n := t.Proc.Space.PT.SetFlagsRange(first, last, set, clear)
	// Huge units overlapping the range pin as a whole (the 4 KiB range
	// write skips huge chunks).
	for ci := vm.ChunkIndex(first); ci <= vm.ChunkIndex(last-1); ci++ {
		c := t.Proc.Space.PT.Chunk(vm.VPN(ci * model.PTEChunkPages))
		if c == nil || !c.Huge || c.HugeFrame == nil {
			continue
		}
		if pinned {
			c.HugeFlags |= vm.PTEPinned
		} else {
			c.HugeFlags &^= vm.PTEPinned
		}
		n += model.PTEChunkPages
	}
	// Page-table walk plus per-page reference bump.
	t.P.Sleep(sim.Time(n) * k.P.MadvisePage)
	return n, nil
}
