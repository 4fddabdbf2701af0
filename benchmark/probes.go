package main

import (
	"fmt"
	"runtime"
	"time"

	numamig "numamig"
	"numamig/internal/exp"
	"numamig/internal/mem"
	"numamig/internal/model"
	"numamig/internal/placement"
	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/tenancy"
	"numamig/internal/topology"
	"numamig/internal/vm"
)

// Layer probes are fixed-work, single-threaded loops over one layer's
// public API. Nothing else runs while a probe does, so its host time
// belongs to that layer alone.

// Probe batch sizing: a batch grows until its timed part reaches
// probeTarget or its whole wall time, set-up included, reaches
// probeWallCap; the reported value is the median of probeBatches
// batches of that size.
const (
	probeTarget  = 40 * time.Millisecond
	probeWallCap = 200 * time.Millisecond
	probeBatches = 5
)

// stopwatch accumulates the timed parts of one probe batch, and the
// bytes they allocated when allocs is set (reading the allocation
// counter stops the world, so only probes that report it pay).
type stopwatch struct {
	allocs  bool
	t0      time.Time
	elapsed time.Duration
	a0      uint64
	bytes   uint64
}

func (s *stopwatch) start() {
	if s.allocs {
		s.a0 = totalAlloc()
	}
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.elapsed += time.Since(s.t0)
	if s.allocs {
		s.bytes += totalAlloc() - s.a0
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// probe is one layer microbenchmark. run performs n operations, timing
// only their measured part with sw, and returns the work done in the
// probe's unit (pages, PTEs, events, calls).
type probe struct {
	name string
	unit string
	// scale converts host nanoseconds per work item to the unit: 1 for
	// ns, 1e3 for us, 1e6 for ms.
	scale float64
	// allocKey, when set, names a second metric: bytes allocated per
	// work item in the timed part.
	allocKey string
	run      func(n int, sw *stopwatch) (work float64, err error)
}

// probeResult is a probe's median over its batches.
type probeResult struct {
	value, bytesPerOp float64
}

func (p probe) measure() (probeResult, error) {
	batch := func(n int) (stopwatch, float64, error) {
		sw := stopwatch{allocs: p.allocKey != ""}
		work, err := p.run(n, &sw)
		if err == nil && work <= 0 {
			err = fmt.Errorf("probe %s did no work", p.name)
		}
		return sw, work, err
	}
	n := 1
	for {
		t0 := time.Now()
		sw, _, err := batch(n)
		if err != nil {
			return probeResult{}, err
		}
		if sw.elapsed >= probeTarget || time.Since(t0) >= probeWallCap {
			break
		}
		grow := 2.0
		if sw.elapsed > 0 {
			grow = 1.2 * float64(probeTarget) / float64(sw.elapsed)
		}
		n = int(float64(n) * min(max(grow, 2), 16))
	}
	vals := make([]float64, probeBatches)
	bytes := make([]float64, probeBatches)
	for i := range vals {
		sw, work, err := batch(n)
		if err != nil {
			return probeResult{}, err
		}
		vals[i] = float64(sw.elapsed.Nanoseconds()) / work / p.scale
		bytes[i] = float64(sw.bytes) / work
	}
	return probeResult{value: median(vals), bytesPerOp: median(bytes)}, nil
}

// probes returns every layer probe; seed drives the Systems they build.
func probes(seed int64) []probe {
	return []probe{
		// sim: event dispatch, token handoff, priority locks, fluid flows.
		{name: "sim.event_ns", unit: "ns", scale: 1, run: probeSimEvent},
		{name: "sim.handoff_ns", unit: "ns", scale: 1, run: probeSimHandoff},
		{name: "sim.acquire_pri_ns", unit: "ns", scale: 1, run: probeSimAcquirePri},
		{name: "sim.fluid_transfer_ns", unit: "ns", scale: 1, run: probeSimFluid},
		// vm: the extent page table.
		{name: "vm.install_ns", unit: "ns", scale: 1, run: probeVMInstall},
		{name: "vm.get_ns", unit: "ns", scale: 1, run: probeVMGet},
		{name: "vm.lookup_ns", unit: "ns", scale: 1, run: probeVMLookup, allocKey: "vm.lookup_bytes_per_op"},
		{name: "vm.extents_ns_per_page", unit: "ns/page", scale: 1, run: probeVMExtents},
		{name: "vm.arm_ns_per_pte", unit: "ns/pte", scale: 1, run: probeVMArm},
		{name: "vm.unmap_ns_per_page", unit: "ns/page", scale: 1, run: probeVMUnmap},
		// mem and placement: frame allocation and the zonelist walk.
		{name: "mem.alloc_free_ns", unit: "ns", scale: 1, run: probeMemAllocFree},
		{name: "placement.alloc_local_ns", unit: "ns", scale: 1, run: probePlacementLocal},
		{name: "placement.alloc_fallback_ns", unit: "ns", scale: 1, run: probePlacementFallback},
		// migrate: the batched pipeline through its syscall and fault paths.
		{name: "migrate.patched_ns_per_page", unit: "ns/page", scale: 1, run: probeMovePages(seed, true)},
		{name: "migrate.unpatched_ns_per_page", unit: "ns/page", scale: 1, run: probeMovePages(seed, false)},
		{name: "migrate.nexttouch_ns_per_page", unit: "ns/page", scale: 1, run: probeNextTouch(seed)},
		// kern: fault, access and rectangle paths, and the idle daemon hub.
		{name: "kern.fault_ns_per_page", unit: "ns/page", scale: 1, run: probeKernFault(seed)},
		{name: "kern.access_ns_per_page", unit: "ns/page", scale: 1, run: probeKernAccess(seed)},
		{name: "kern.rect_ns_per_page", unit: "ns/page", scale: 1, run: probeKernRect(seed)},
		{name: "kern.hub_idle_period_us", unit: "us", scale: 1e3, run: probeHubIdle(seed)},
		// telemetry: publish with the bus dark and with one subscriber.
		{name: "telemetry.publish_dark_ns", unit: "ns", scale: 1, run: probePublish(false)},
		{name: "telemetry.publish_lit_ns", unit: "ns", scale: 1, run: probePublish(true)},
		// tenancy: the residency ledger.
		{name: "tenancy.charge_release_ns", unit: "ns", scale: 1, run: probeLedgerChargeRelease},
		{name: "tenancy.move_ns", unit: "ns", scale: 1, run: probeLedgerMove},
		{name: "tenancy.overcap_ns", unit: "ns", scale: 1, run: probeLedgerOverCap},
		// topology and the root package: machine construction.
		{name: "topology.grid1024_ms", unit: "ms", scale: 1e6, run: probeGrid1024},
		{name: "topology.hierarchy1024_ms", unit: "ms", scale: 1e6, run: probeHierarchy1024},
		{name: "numamig.new256_ms", unit: "ms", scale: 1e6, run: probeNew256(seed)},
		// exp: scenario expansion.
		{name: "exp.scenarios_ms", unit: "ms", scale: 1e6, run: probeScenarios(seed)},
	}
}

// ---- sim ----

func probeSimEvent(n int, sw *stopwatch) (float64, error) {
	eng := sim.NewEngine(1)
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.At(1, tick)
		}
	}
	eng.At(0, tick)
	sw.start()
	err := eng.Run()
	sw.stop()
	return float64(n), err
}

// probeSimHandoff alternates two procs' sleeps, so every wake-up hands
// the execution token to the other proc.
func probeSimHandoff(n int, sw *stopwatch) (float64, error) {
	eng := sim.NewEngine(1)
	per := (n + 1) / 2
	for i := 0; i < 2; i++ {
		offset := sim.Time(i)
		eng.Spawn("handoff", func(p *sim.Proc) {
			p.Sleep(offset)
			for j := 0; j < per; j++ {
				p.Sleep(2)
			}
		})
	}
	sw.start()
	err := eng.Run()
	sw.stop()
	return float64(2 * per), err
}

// probeSimAcquirePri has four procs of two priorities contend for one
// capacity-1 resource.
func probeSimAcquirePri(n int, sw *stopwatch) (float64, error) {
	const waiters = 4
	eng := sim.NewEngine(1)
	res := sim.NewResource(eng, "probe", 1)
	per := (n + waiters - 1) / waiters
	for i := 0; i < waiters; i++ {
		pri := i % 2
		eng.Spawn("acquire", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				res.AcquirePri(p, pri)
				p.Sleep(1)
				res.Release()
			}
		})
	}
	sw.start()
	err := eng.Run()
	sw.stop()
	return float64(waiters * per), err
}

// probeSimFluid runs 64 concurrent flows over one link; every flow
// start and completion re-solves the link's rates.
func probeSimFluid(n int, sw *stopwatch) (float64, error) {
	const flows = 64
	eng := sim.NewEngine(1)
	f := sim.NewFluid(eng)
	link := sim.NewLink("probe", 1e9)
	per := (n + flows - 1) / flows
	for i := 0; i < flows; i++ {
		bytes := float64(4096 * (1 + i%4))
		eng.Spawn("flow", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				f.Transfer(p, bytes, link)
			}
		})
	}
	sw.start()
	err := eng.Run()
	sw.stop()
	return float64(flows * per), err
}

// ---- vm ----

// vmTablePages is the probe page-table size: 8 chunks.
const vmTablePages = 8 * model.PTEChunkPages

// fragmentedEntries returns PTEs for pages 0..pages-1 in 16-page runs
// alternating between nodes 0 and 1: 32 extents per chunk, the shape a
// buffer takes after part of it migrated.
func fragmentedEntries(pages int) []vm.PTE {
	frames := make([]mem.Frame, pages)
	ptes := make([]vm.PTE, pages)
	for i := range ptes {
		frames[i] = mem.Frame{Node: topology.NodeID(i / 16 % 2), PFN: uint64(i)}
		ptes[i] = vm.PTE{Frame: &frames[i], Flags: vm.PTEPresent | vm.PTERead | vm.PTEWrite}
	}
	return ptes
}

func installAll(pt *vm.PageTable, ptes []vm.PTE) {
	for i, e := range ptes {
		pt.Install(vm.VPN(i), e)
	}
}

func fragmentedTable(pages int) *vm.PageTable {
	pt := vm.NewPageTable()
	installAll(pt, fragmentedEntries(pages))
	return pt
}

func probeVMInstall(n int, sw *stopwatch) (float64, error) {
	ptes := fragmentedEntries(vmTablePages)
	for i := 0; i < n; i++ {
		pt := vm.NewPageTable()
		sw.start()
		installAll(pt, ptes)
		sw.stop()
	}
	return float64(n * vmTablePages), nil
}

// sink keeps probe and reference-loop results live so the compiler
// cannot drop the calls.
var sink int

func probeVMGet(n int, sw *stopwatch) (float64, error) {
	pt := fragmentedTable(vmTablePages)
	present := 0
	sw.start()
	for i := 0; i < n; i++ {
		if pt.Get(vm.VPN(i%vmTablePages)).Flags&vm.PTEPresent != 0 {
			present++
		}
	}
	sw.stop()
	sink += present
	return float64(n), nil
}

// probeVMLookup takes *PTE aliases across a compact table, which
// materializes every chunk it touches; the allocation shows in
// vm.lookup_bytes_per_op.
func probeVMLookup(n int, sw *stopwatch) (float64, error) {
	ptes := fragmentedEntries(vmTablePages)
	present := 0
	for i := 0; i < n; i++ {
		pt := vm.NewPageTable()
		installAll(pt, ptes)
		sw.start()
		for v := 0; v < vmTablePages; v++ {
			if pt.Lookup(vm.VPN(v)).Present() {
				present++
			}
		}
		sw.stop()
	}
	sink += present
	return float64(n * vmTablePages), nil
}

func probeVMExtents(n int, sw *stopwatch) (float64, error) {
	pt := fragmentedTable(vmTablePages)
	runs := 0
	sw.start()
	for i := 0; i < n; i++ {
		pt.Extents(0, vmTablePages, false, func(vm.Ext) bool { runs++; return true })
	}
	sw.stop()
	sink += runs
	return float64(n * vmTablePages), nil
}

func probeVMArm(n int, sw *stopwatch) (float64, error) {
	ptes := fragmentedEntries(vmTablePages)
	examined := 0
	for i := 0; i < n; i++ {
		pt := vm.NewPageTable()
		installAll(pt, ptes)
		sw.start()
		_, e := pt.ArmRange(0, vmTablePages, nil)
		sw.stop()
		examined += e
	}
	return float64(examined), nil
}

func probeVMUnmap(n int, sw *stopwatch) (float64, error) {
	ptes := fragmentedEntries(vmTablePages)
	freed := 0
	free := func(*mem.Frame) { freed++ }
	for i := 0; i < n; i++ {
		pt := vm.NewPageTable()
		installAll(pt, ptes)
		sw.start()
		pt.UnmapRange(0, vmTablePages, free)
		sw.stop()
	}
	return float64(freed), nil
}

// ---- mem, placement ----

func probeMemAllocFree(n int, sw *stopwatch) (float64, error) {
	phys := mem.NewPhys(topology.Grid(4, 4, 8<<30, 2<<20), false)
	sw.start()
	for i := 0; i < n; i++ {
		f, err := phys.Alloc(0)
		if err != nil {
			return 0, err
		}
		phys.Free(f)
	}
	sw.stop()
	return float64(n), nil
}

// allocFree times n AllocPage(0)+Free pairs on a placer over m.
func allocFree(m *topology.Machine, phys *mem.Phys, n int, sw *stopwatch) (float64, error) {
	p := model.Default()
	pl := placement.New(m, phys, &p)
	pl.Zonelist(0) // built lazily on first use; keep that out of the timing
	sw.start()
	for i := 0; i < n; i++ {
		f := pl.AllocPage(0)
		if f == nil {
			return 0, fmt.Errorf("placement probe: no frame")
		}
		phys.Free(f)
	}
	sw.stop()
	return float64(n), nil
}

func probePlacementLocal(n int, sw *stopwatch) (float64, error) {
	m := topology.Grid(4, 4, 8<<30, 2<<20)
	return allocFree(m, mem.NewPhys(m, false), n, sw)
}

// probePlacementFallback fills node 0 of a 64-node grid, so every
// allocation aimed at it walks the zonelist to a neighbour.
func probePlacementFallback(n int, sw *stopwatch) (float64, error) {
	m := topology.Grid(64, 1, 1<<20, 2<<20)
	phys := mem.NewPhys(m, false)
	for {
		if _, err := phys.Alloc(0); err != nil {
			break
		}
	}
	return allocFree(m, phys, n, sw)
}

// ---- migrate, kern ----

// probePages is the buffer the migrate and kern probes work on: 16 MiB.
const probePages = 4096

// inTask runs body as the main task of a default (paper host) System.
func inTask(seed int64, body func(t *numamig.Task) error) error {
	sys := numamig.New(numamig.Config{Seed: seed})
	var err error
	if runErr := sys.Run(func(t *numamig.Task) { err = body(t) }); runErr != nil {
		return runErr
	}
	return err
}

// probeMovePages moves a 4096-page buffer between nodes 0 and 1 with
// move_pages; work is pages moved.
func probeMovePages(seed int64, patched bool) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		err := inTask(seed, func(t *numamig.Task) error {
			buf, err := numamig.Alloc(t, probePages*numamig.PageSize, numamig.Bind(0))
			if err != nil {
				return err
			}
			if err := buf.Prefault(t); err != nil {
				return err
			}
			sw.start()
			defer sw.stop()
			for i := 0; i < n; i++ {
				if err := buf.MoveTo(t, 1, patched); err != nil {
					return err
				}
				if err := buf.MoveTo(t, 0, patched); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(2 * n * probePages), err
	}
}

// probeNextTouch marks the buffer migrate-on-next-touch, moves the
// thread to the other node and reads the buffer there, so every page
// migrates on its fault; work is pages migrated.
func probeNextTouch(seed int64) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		err := inTask(seed, func(t *numamig.Task) error {
			buf, err := numamig.Alloc(t, probePages*numamig.PageSize, numamig.Bind(0))
			if err != nil {
				return err
			}
			if err := buf.Prefault(t); err != nil {
				return err
			}
			m := t.K().M
			sw.start()
			defer sw.stop()
			for i := 0; i < n; i++ {
				if _, err := t.Madvise(buf.Base, buf.Size, numamig.AdvMigrateOnNextTouch); err != nil {
					return err
				}
				t.MigrateTo(m.Nodes[(t.Node()+1)%2].Cores[0])
				if err := buf.Access(t, numamig.Stream, false); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(n * probePages), err
	}
}

func probeKernFault(seed int64) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		err := inTask(seed, func(t *numamig.Task) error {
			for i := 0; i < n; i++ {
				buf, err := numamig.Alloc(t, probePages*numamig.PageSize, numamig.FirstTouch())
				if err != nil {
					return err
				}
				sw.start()
				err = buf.Prefault(t)
				sw.stop()
				if err != nil {
					return err
				}
				if err := buf.Free(t); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(n * probePages), err
	}
}

func probeKernAccess(seed int64) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		err := inTask(seed, func(t *numamig.Task) error {
			buf, err := numamig.Alloc(t, probePages*numamig.PageSize, numamig.FirstTouch())
			if err != nil {
				return err
			}
			if err := buf.Prefault(t); err != nil {
				return err
			}
			sw.start()
			defer sw.stop()
			for i := 0; i < n; i++ {
				if err := buf.Access(t, numamig.Stream, false); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(n * probePages), err
	}
}

// probeKernRect sweeps the blocks of an interleaved 2048x2048 float
// matrix the way the LU driver does: fault each block rectangle in,
// then charge its traffic. Every block row lies in its own page, so
// work is block rows.
func probeKernRect(seed int64) func(int, *stopwatch) (float64, error) {
	const dim, block, elem = 2048, 128, 4
	return func(n int, sw *stopwatch) (float64, error) {
		nb := dim / block
		err := inTask(seed, func(t *numamig.Task) error {
			nodes := make([]numamig.NodeID, t.K().M.NumNodes())
			for i := range nodes {
				nodes[i] = numamig.NodeID(i)
			}
			buf, err := numamig.Alloc(t, dim*dim*elem, numamig.Interleave(nodes...))
			if err != nil {
				return err
			}
			if err := buf.Prefault(t); err != nil {
				return err
			}
			sw.start()
			defer sw.stop()
			for i := 0; i < n; i++ {
				for bi := 0; bi < nb; bi++ {
					for bj := 0; bj < nb; bj++ {
						r := numamig.Rect{
							Base:     buf.Base + numamig.Addr((bi*block*dim+bj*block)*elem),
							RowBytes: block * elem, Stride: dim * elem, Rows: block,
						}
						if _, err := t.FaultInRect(r, false); err != nil {
							return err
						}
						t.TrafficRect(r, numamig.Blocked, false)
					}
				}
			}
			return nil
		})
		return float64(n * nb * nb * block), err
	}
}

// probeHubIdle sleeps one task through kswapd periods on a 1024-node
// machine whose demotion daemons all stay idle; work is periods.
func probeHubIdle(seed int64) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		sys := numamig.New(numamig.Config{Nodes: 1024, CoresPerNode: 1, MemPerNode: 1 << 30, Seed: seed, Demotion: true})
		span := sys.Kernel.P.KswapdPeriod * sim.Time(n)
		sw.start()
		err := sys.Run(func(t *numamig.Task) { t.P.Sleep(span) })
		sw.stop()
		return float64(n), err
	}
}

// ---- telemetry ----

func probePublish(lit bool) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		bus := telemetry.NewBus(func() sim.Time { return 0 })
		delivered := 0
		if lit {
			bus.SubscribeAll(func(telemetry.Event) { delivered++ })
		}
		ev := telemetry.Event{Topic: telemetry.TopicPageFault, Node: 0, Dst: telemetry.NoNode, Task: 1, Pages: 1}
		sw.start()
		for i := 0; i < n; i++ {
			bus.Publish(ev)
		}
		sw.stop()
		sink += delivered
		return float64(n), nil
	}
}

// ---- tenancy ----

// serveLedger admits the serve workload's 28 tenants on its 7 DRAM + 1
// CXL machine, each holding one page on node 0, under its cap.
func serveLedger() (*tenancy.Ledger, []*tenancy.Tenant) {
	bus := telemetry.NewBus(func() sim.Time { return 0 })
	l := tenancy.NewLedger(bus, func(n topology.NodeID) int {
		if n >= 7 {
			return 1
		}
		return 0
	})
	var ts []*tenancy.Tenant
	for i := 0; i < 28; i++ {
		class, capPages := tenancy.ClassBatch, 64
		if i%2 == 1 {
			class, capPages = tenancy.ClassLatencySensitive, 256
		}
		t := l.Admit(i, fmt.Sprintf("tenant%d", i), class, capPages)
		l.Charge(t, 0, 1)
		ts = append(ts, t)
	}
	return l, ts
}

func probeLedgerChargeRelease(n int, sw *stopwatch) (float64, error) {
	l, ts := serveLedger()
	sw.start()
	for i := 0; i < n; i++ {
		t := ts[i%len(ts)]
		l.Charge(t, 0, 1)
		l.Release(t, 0, 1)
	}
	sw.stop()
	return float64(n), nil
}

func probeLedgerMove(n int, sw *stopwatch) (float64, error) {
	l, ts := serveLedger()
	sw.start()
	for i := 0; i < n; i++ {
		t := ts[i%len(ts)]
		l.Move(t, 0, 7, 1)
		l.Move(t, 7, 0, 1)
	}
	sw.stop()
	return float64(2 * n), nil
}

// probeLedgerOverCap asks for an over-cap tenant on node 0 when none
// is, so every call scans all 28 tenants.
func probeLedgerOverCap(n int, sw *stopwatch) (float64, error) {
	l, _ := serveLedger()
	found := 0
	sw.start()
	for i := 0; i < n; i++ {
		if l.OverCapOn(0) != nil {
			found++
		}
	}
	sw.stop()
	if found != 0 {
		return 0, fmt.Errorf("overcap probe: found an over-cap tenant")
	}
	return float64(n), nil
}

// ---- topology, numamig, exp ----

func probeGrid1024(n int, sw *stopwatch) (float64, error) {
	sw.start()
	for i := 0; i < n; i++ {
		sink += topology.Grid(1024, 1, 1<<30, 2<<20).NumNodes()
	}
	sw.stop()
	return float64(n), nil
}

func probeHierarchy1024(n int, sw *stopwatch) (float64, error) {
	cfg := topology.HierarchyConfig{
		Sockets: 16, DiesPerSocket: 4, NodesPerDie: 15, CXLPerSocket: 4,
		CoresPerNode: 1, MemPerNode: 1 << 30, L3PerNode: 2 << 20, CXLMemPerNode: 4 << 30,
	}
	sw.start()
	for i := 0; i < n; i++ {
		sink += topology.Hierarchy(cfg).NumNodes()
	}
	sw.stop()
	return float64(n), nil
}

// probeNew256 builds the churn workload's machine.
func probeNew256(seed int64) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		sw.start()
		for i := 0; i < n; i++ {
			sys := numamig.New(numamig.Config{Nodes: 256, CoresPerNode: 2, MemPerNode: 1 << 30, Seed: seed, Demotion: true})
			sink += sys.Machine.NumCores()
		}
		sw.stop()
		return float64(n), nil
	}
}

func probeScenarios(seed int64) func(int, *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		sw.start()
		defer sw.stop()
		for i := 0; i < n; i++ {
			scs, err := exp.Scenarios(nil, exp.Options{Seed: seed})
			if err != nil {
				return 0, err
			}
			sink += len(scs)
		}
		return float64(n), nil
	}
}

// familyPasses is how many serial grid passes familyHostSeconds takes
// the median of.
const familyPasses = 3

// familyHostSeconds runs the whole grid serially familyPasses times and
// returns, per family, the median host seconds its scenarios took in
// one pass.
func familyHostSeconds(seed int64) (map[string]float64, error) {
	scs, err := exp.Scenarios(nil, exp.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	per := map[string][]float64{}
	for p := 0; p < familyPasses; p++ {
		sums := map[string]float64{}
		for _, s := range scs {
			start := time.Now()
			if r := exp.RunScenario(s); r.Err != "" {
				return nil, fmt.Errorf("scenario %s: %s", s.ID, r.Err)
			}
			sums[s.Family] += time.Since(start).Seconds()
		}
		for f, v := range sums {
			per[f] = append(per[f], v)
		}
	}
	out := map[string]float64{}
	for f, vs := range per {
		out[f] = median(vs)
	}
	return out, nil
}
