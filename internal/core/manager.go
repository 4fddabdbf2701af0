package core

import (
	"fmt"

	"numamig/internal/kern"
	"numamig/internal/topology"
)

// Mode selects how a workset follows its thread.
type Mode int

// Migration modes.
const (
	// Sync migrates the whole workset immediately with move_pages when
	// the thread moves (the basic model of §3.4).
	Sync Mode = iota
	// LazyKernel marks the workset Migrate-on-next-touch via madvise;
	// pages migrate in the page-fault handler as they are touched, and
	// untouched pages never move (§3.4, "Lazy Migration").
	LazyKernel
	// LazyUser marks the workset with the user-space next-touch library;
	// the whole workset migrates at once on first touch.
	LazyUser
)

func (m Mode) String() string {
	switch m {
	case Sync:
		return "sync"
	case LazyKernel:
		return "lazy-kernel"
	case LazyUser:
		return "lazy-user"
	}
	return "invalid"
}

// Manager implements the paper's migration-decision model: the scheduler
// moves threads freely; the manager makes the thread's workset follow it,
// either synchronously or lazily. It removes the need for the scheduler
// to know which buffers belong to which thread (§3.4).
type Manager struct {
	Proc    *kern.Process
	Mode    Mode
	Patched bool // move_pages flavour for Sync/LazyUser

	userNT   *UserNT
	kernelNT *KernelNT
	worksets map[int][]Region // task TID -> workset

	// Stats.
	ThreadMoves uint64
	SyncPages   uint64
}

// NewManager creates a manager with the given migration mode.
func NewManager(proc *kern.Process, mode Mode, patched bool) *Manager {
	m := &Manager{Proc: proc, Mode: mode, Patched: patched, worksets: map[int][]Region{}}
	switch mode {
	case LazyUser:
		m.userNT = NewUserNT(proc, patched)
	case LazyKernel:
		m.kernelNT = NewKernelNT(proc)
	}
	return m
}

// Attach associates a workset with a thread.
func (m *Manager) Attach(t *kern.Task, regions ...Region) {
	m.worksets[t.TID] = append(m.worksets[t.TID], regions...)
}

// MoveThread migrates the thread to a new core and makes its workset
// follow per the configured mode. With the lazy modes this returns
// immediately after marking; migration happens on touch.
func (m *Manager) MoveThread(t *kern.Task, core topology.CoreID) error {
	oldNode := t.Node()
	t.MigrateTo(core)
	if t.Node() == oldNode {
		return nil // same node: no data movement needed
	}
	m.ThreadMoves++
	for _, r := range m.worksets[t.TID] {
		switch m.Mode {
		case Sync:
			st, err := t.MovePagesTo(r.Addr, r.Len, t.Node(), m.Patched)
			if err != nil {
				return fmt.Errorf("core: sync workset migration: %w", err)
			}
			for _, s := range st {
				if s >= 0 {
					m.SyncPages++
				}
			}
		case LazyKernel:
			if _, err := m.kernelNT.Mark(t, r); err != nil {
				return fmt.Errorf("core: kernel NT mark: %w", err)
			}
		case LazyUser:
			if err := m.userNT.Mark(t, r); err != nil {
				return fmt.Errorf("core: user NT mark: %w", err)
			}
		}
	}
	return nil
}
