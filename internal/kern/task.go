package kern

import (
	"fmt"

	"numamig/internal/mem"
	"numamig/internal/migrate"
	"numamig/internal/sim"
	"numamig/internal/tenancy"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// SigInfo describes a delivered SIGSEGV.
type SigInfo struct {
	Addr  vm.Addr
	Write bool
}

// SigHandler is a user-registered segmentation-fault handler. It runs in
// the faulting task's context; on return the faulting access is retried.
type SigHandler func(t *Task, info SigInfo)

// Process is a simulated user process: one address space shared by its
// tasks (threads).
type Process struct {
	K       *Kernel
	Name    string
	Space   *vm.Space
	MmapSem *sim.RWLock

	// Tenant, when non-nil, is the tenancy-ledger entry this process is
	// charged against (SetTenant). MigPrio is the migration-request
	// priority derived from the tenant's class; 0 for untenanted
	// processes.
	Tenant  *tenancy.Tenant
	MigPrio int

	chunkLocks   map[uint64]*sim.Resource
	sigHandler   SigHandler
	numaBalancer NumaBalancer
	tasks        []*Task
	nextTID      int
	// spare holds the scratch buffers of finished tasks for new ones,
	// so short-lived threads (one per OpenMP region) reuse grown
	// buffers instead of growing their own.
	spare []taskScratch

	// Read-only replication state (the §6 extension; see replicate.go).
	replicas     map[vm.VPN][]*mem.Frame
	replicaStats ReplicaStats
}

// OnSegv installs the process SIGSEGV handler (nil uninstalls).
func (pr *Process) OnSegv(h SigHandler) { pr.sigHandler = h }

// SetTenant binds the process to a tenancy-ledger entry: every frame
// its demand faults allocate is charged to ten, every frame its unmaps
// free is released, and every page the migration engine moves for it
// is re-homed in the ledger. The process's migration requests carry
// the tenant class's priority through the engine's lock queues.
func (pr *Process) SetTenant(ten *tenancy.Tenant) {
	pr.Tenant = ten
	pr.MigPrio = ten.Class.Priority()
	pr.Space.OnFree = func(f *mem.Frame) {
		pr.K.Ten.Release(ten, f.Node, 1)
	}
}

// NotePageMove implements migrate.PageMover: the engine calls it after
// each 4 KiB op has allocated its destination and freed its source, so
// the tenancy ledger tracks mem.Phys exactly. A replica copy of page v
// on dst now sits beside the primary and is freed (dropCopy).
func (pr *Process) NotePageMove(v vm.VPN, src, dst topology.NodeID) {
	if pr.Tenant != nil {
		pr.K.Ten.Move(pr.Tenant, src, dst, 1)
	}
	pr.dropCopy(v, dst)
}

// NumThreads returns the number of live tasks.
func (pr *Process) NumThreads() int { return len(pr.tasks) }

// ---- migrate.Space implementation ----
//
// The process is the address-space surface the migration engine
// mutates: its page table, PTE locks, and TLB-shootdown accounting.

// PageTable returns the process page table.
func (pr *Process) PageTable() *vm.PageTable { return pr.Space.PT }

// ChunkLock returns the PTE lock covering the 2 MiB page-table chunk
// ci, creating it on first use; Munmap drops it with the chunk.
func (pr *Process) ChunkLock(ci uint64) *sim.Resource {
	l := pr.chunkLocks[ci]
	if l == nil {
		l = sim.NewResource(pr.K.Eng, fmt.Sprintf("%s.ptl%d", pr.Name, ci), 1)
		pr.chunkLocks[ci] = l
	}
	return l
}

// TLBFlush charges a TLB shootdown across all cores running this
// process's threads, executed by p.
func (pr *Process) TLBFlush(p *sim.Proc) {
	k := pr.K
	k.Stats.TLBShootdowns++
	others := len(pr.tasks) - 1
	if others < 0 {
		others = 0
	}
	p.Sleep(k.P.TLBShootBase + sim.Time(others)*k.P.TLBShootCore)
}

// Task is one thread of a process, bound to a core.
type Task struct {
	P    *sim.Proc
	Proc *Process
	TID  int
	Core topology.CoreID

	// Fault/access scratch buffers, reused across calls. Safe without
	// locking: a task services one fault at a time and the engine's
	// execution token serializes all simulated code.
	scratch taskScratch
}

// taskScratch holds the per-task reusable buffers of the bulk fault and
// access paths, so a grid run's millions of fault rounds stop allocating
// span lists, classification slices and per-node accumulators.
// moveOps is move_pages' own: a SIGSEGV handler may call MovePagesTo
// between the rounds of a fault that holds spans.
type taskScratch struct {
	spans     []vm.Span
	faults    vm.FaultClasses
	nodeOrder []topology.NodeID
	nodeCount []int
	moveOps   []migrate.Op
}

// counts returns the per-node page counter, sized to the machine and
// zeroed.
func (s *taskScratch) counts(nn int) []int {
	if cap(s.nodeCount) < nn {
		s.nodeCount = make([]int, nn)
	}
	s.nodeCount = s.nodeCount[:nn]
	clear(s.nodeCount)
	return s.nodeCount
}

// Spawn starts a new thread on the given core running fn. The thread is
// registered for TLB-shootdown accounting until fn returns.
func (pr *Process) Spawn(name string, core topology.CoreID, fn func(t *Task)) *Task {
	pr.nextTID++
	t := &Task{Proc: pr, TID: pr.nextTID, Core: core}
	pr.addTask(t)
	pr.K.Eng.Spawn(name, func(p *sim.Proc) {
		t.P = p
		defer pr.removeTask(t)
		fn(t)
	})
	return t
}

// Adopt binds an existing sim proc as a thread of the process; used when
// the caller manages proc lifetime itself. Release with removeTask via
// the returned func.
func (pr *Process) Adopt(p *sim.Proc, core topology.CoreID) (*Task, func()) {
	pr.nextTID++
	t := &Task{P: p, Proc: pr, TID: pr.nextTID, Core: core}
	pr.addTask(t)
	return t, func() { pr.removeTask(t) }
}

// addTask and removeTask keep the kernel's live-task count in step with
// the process's task list, and hand the scratch buffers of finished
// tasks to new ones.
func (pr *Process) addTask(t *Task) {
	if n := len(pr.spare); n > 0 {
		t.scratch, pr.spare = pr.spare[n-1], pr.spare[:n-1]
	}
	pr.tasks = append(pr.tasks, t)
	pr.K.live++
}

func (pr *Process) removeTask(t *Task) {
	for i, x := range pr.tasks {
		if x == t {
			pr.tasks = append(pr.tasks[:i], pr.tasks[i+1:]...)
			pr.K.live--
			pr.spare = append(pr.spare, t.scratch)
			t.scratch = taskScratch{}
			return
		}
	}
}

// Node returns the NUMA node of the task's current core.
func (t *Task) Node() topology.NodeID { return t.Proc.K.M.NodeOf(t.Core) }

// K returns the kernel.
func (t *Task) K() *Kernel { return t.Proc.K }

// MigrateTo moves the thread to another core (scheduler decision),
// charging a context-switch cost.
func (t *Task) MigrateTo(core topology.CoreID) {
	if core == t.Core {
		return
	}
	t.P.Sleep(t.Proc.K.P.CtxSwitch)
	t.Core = core
}

// tlbShootdown charges a TLB flush across all cores running this
// process's threads.
func (t *Task) tlbShootdown() { t.Proc.TLBFlush(t.P) }
