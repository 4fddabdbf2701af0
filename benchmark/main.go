// Command numamig-bench is the repository's host-time benchmark: how
// long the simulator itself takes, end to end and layer by layer, on
// four workloads that stress different layers. It measures from the
// outside, through each layer's public functions, and checks every
// output it times.
//
// From the repository root:
//
//	bash benchmark/run.sh                      # every workload, each in its own process
//	bash benchmark/run.sh --workload lu-table1 --seed 3 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload grid-all --trace 1   # per-layer metrics
//
// Each workload run prints its metrics by name with their units, then,
// as the last line, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace
// 1 the per-layer ones, and writes trace.json and cpu.pprof under
// --out/<workload>. A failed correctness check makes the exit status
// non-zero. See README.md for the workloads, metrics and bounds.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	numamig "numamig"
	"numamig/internal/exp"
	"numamig/internal/telemetry"
)

// A run sets its workload up at least minSetups times and for at least
// minSetupTime, and reports the median as setup_s: set-ups of a few
// milliseconds need many samples for a steady median.
const (
	minSetups    = 5
	minSetupTime = time.Second
)

// options are one benchmark run's flags.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // traces go to out/<workload>
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds each time-bounded phase measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled run")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for each workload's trace.json and cpu.pprof")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: numamig-bench [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--out dir]")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	if *name == "" {
		os.Exit(runAll(o))
	}
	for _, sp := range specs() {
		if sp.name == *name {
			rep := runWorkload(sp, o, os.Stdout)
			line, err := json.Marshal(rep)
			if err != nil {
				fmt.Fprintln(os.Stderr, "numamig-bench:", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
			os.Exit(rep.exitCode())
		}
	}
	fmt.Fprintf(os.Stderr, "numamig-bench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runAll runs every workload in its own child process, one at a time,
// so each workload's peak RSS is its own, and returns the exit status.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "numamig-bench:", err)
		return 1
	}
	status := 0
	for _, sp := range specs() {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", sp.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(int(o.seconds/time.Second)), "--trace", trace, "--out", o.out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "numamig-bench: %s: %v\n", sp.name, err)
			status = 1
		}
	}
	return status
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one workload run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// failRatio is failed units over attempted units.
func (r report) failRatio() float64 { return float64(r.Failed) / float64(r.Attempted) }

func (r report) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}

// printer writes the human-readable lines of a run and collects the
// metrics for the result line.
type printer struct {
	w       io.Writer
	metrics map[string]metric
}

func (p *printer) put(name string, v float64, unit, note string) {
	p.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(p.w, "%-34s %14.6g %-7s %s\n", name, v, unit, note)
}

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// spread describes the samples a median came from.
func spread(xs []float64, what string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("(median of %d %s; q1 %.6g, q3 %.6g)", len(xs), what, q1, q3)
}

// observer is a run's System observer: the lit workload's subscriber on
// every telemetry topic and, during the traced phase, the collector.
type observer struct {
	lit       bool
	busEvents atomic.Uint64
	coll      atomic.Pointer[collector]
}

func (o *observer) observe(sys *numamig.System) {
	if o.lit {
		sys.Bus().SubscribeAll(func(telemetry.Event) { o.busEvents.Add(1) })
	}
	if c := o.coll.Load(); c != nil {
		c.add(sys)
	}
}

// newReport folds a run's unit count, the units that failed their own
// checks and any run-level error into its result line. A run-level
// error fails every unit; a run in which nothing ran counts as one
// failed unit.
func newReport(attempted, failedUnits int, runErr error, metrics map[string]metric) report {
	if attempted == 0 {
		attempted, failedUnits = 1, 1
	}
	failed := min(failedUnits, attempted)
	if runErr != nil {
		failed = attempted
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// runWorkload sets the workload up, runs its time-bounded phase, and,
// when tracing, a fixed-work traced phase and the layer probes; then
// checks every output and reports.
func runWorkload(sp spec, o options, log io.Writer) report {
	workers := runtime.GOMAXPROCS(0)
	fmt.Fprintf(log, "# numamig-bench workload=%s seed=%d seconds=%d trace=%t go=%s nproc=%d GOMAXPROCS=%d grid_workers=%d\n",
		sp.name, o.seed, int(o.seconds/time.Second), o.trace, runtime.Version(), runtime.NumCPU(), workers, workers)
	w := sp.make(runEnv{seed: o.seed, workers: workers})
	p := &printer{w: log, metrics: map[string]metric{}}
	obs := &observer{lit: sp.lit}
	numamig.SetSystemObserver(obs.observe)
	defer numamig.SetSystemObserver(nil)

	// A traced run compares two phases, and keeps reference loops out
	// of both so that neither is slowed by them.
	ref := &speedRef{interleave: !o.trace}
	ref.block()
	var errs []error
	var setups []float64
	for setupStart := time.Now(); len(setups) < minSetups || time.Since(setupStart) < minSetupTime; {
		ref.maybeSample()
		start := time.Now()
		if err := w.setup(); err != nil {
			errs = append(errs, fmt.Errorf("setup: %w", err))
			break
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The traced run reports no unit percentiles, so its timed phase
	// needs no minimum unit count.
	least := minUnits
	if o.trace {
		least = 0
	}
	m := timedMeter(o.seconds, least, sp.cycle, ref)
	if len(errs) == 0 {
		errs = append(errs, measure(w, m, nil))
	}
	rss, err := peakRSS()
	errs = append(errs, err)
	ref.block()

	var tm *meter
	var tr traced
	var traceScale float64
	if o.trace && errors.Join(errs...) == nil {
		tm, tr, err = tracePhase(w, sp.tracedPasses, obs)
		errs = append(errs, err)
		// The traced phase's reference speed: the block just before it
		// and one more after it.
		around := &speedRef{samples: append([]float64(nil), ref.samples[refBlock:]...)}
		around.block()
		traceScale = around.scale()
	}
	numamig.SetSystemObserver(nil)

	units, checkErr := w.check()
	errs = append(errs, checkErr)
	attempted := m.units()
	if tm != nil {
		attempted += tm.units()
	}

	f := ref.scale()
	fmt.Fprintf(log, "%-34s %14.6g %-7s %s; reference-speed scale %.4g\n",
		"reference_loop", median(ref.samples), "s", spread(ref.samples, "loops"), f)
	if !o.trace {
		wall, cpu, unitMS := scaled(m.passWall, f), scaled(m.passCPU, f), scaled(m.unitMS, f)
		p.put("wall_s", median(wall), "s", spread(wall, "passes"))
		p.put("cpu_s", median(cpu), "s", spread(cpu, "passes"))
		p.put("setup_s", median(setups)*f, "s", spread(scaled(setups, f), "set-ups"))
		p.put("unit_ms_p50", highMedian(unitMS), "ms", fmt.Sprintf("(high median of %d units)", len(unitMS)))
		if v, ok := tailPercentile(unitMS, 90); ok {
			p.put("unit_ms_p90", v, "ms", fmt.Sprintf("(nearest rank of %d units)", len(unitMS)))
		} else {
			fmt.Fprintf(log, "unit_ms_p90 omitted: %d units leave fewer than %d beyond it\n", len(m.unitMS), minTail)
		}
		p.put("peak_rss_mb", float64(rss)/(1<<20), "MiB", "(VmHWM after the measured phase)")
	} else if tm != nil {
		dir := filepath.Join(o.out, sp.name)
		errs = append(errs, writeTraceFiles(dir, sp.name, tm, tr), p.perLayer(o.seed, m, tm, tr, f, traceScale))
	}

	runErr := errors.Join(errs...)
	for k, v := range p.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			runErr = errors.Join(runErr, fmt.Errorf("metric %s is %v", k, v.Value))
			delete(p.metrics, k)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "numamig-bench:", runErr)
	}
	if units.failed > 0 {
		fmt.Fprintf(os.Stderr, "numamig-bench: %d units failed their checks, first: %v\n", units.failed, units.first)
	}
	rep := newReport(attempted, units.failed, runErr, p.metrics)
	fmt.Fprintf(log, "%-34s %14.6g %-7s (%d failed of %d units)\n", "fail_ratio",
		rep.failRatio(), "ratio", rep.Failed, rep.Attempted)
	return rep
}

// measure runs passes while the meter asks for more, folding the
// collector's Systems after each pass when one is given.
func measure(w workloadRunner, m *meter, c *collector) error {
	for m.more() {
		m.begin()
		err := w.pass(m)
		m.end()
		if c != nil {
			c.fold()
		}
		if err != nil {
			return fmt.Errorf("pass %d: %w", len(m.passWall), err)
		}
	}
	return nil
}

// traced is what the traced phase measured besides its meter.
type traced struct {
	counts     simCounts
	profile    []byte
	allocBytes uint64
	gcCycles   uint32
}

// tracePhase runs passes of the workload under the CPU profiler, with
// every System built meanwhile collected for its simulated counts.
func tracePhase(w workloadRunner, passes int, obs *observer) (*meter, traced, error) {
	var tr traced
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	c := &collector{}
	obs.coll.Store(c)
	defer obs.coll.Store(nil)
	ev0 := obs.busEvents.Load()
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, tr, err
	}
	tm := fixedMeter(passes)
	err := measure(w, tm, c)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	tr.counts = c.counts
	tr.counts.BusEvents = obs.busEvents.Load() - ev0
	tr.profile = prof.Bytes()
	tr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	tr.gcCycles = ms1.NumGC - ms0.NumGC
	return tm, tr, err
}

// writeTraceFiles writes the traced phase's CPU profile (cpu.pprof) and
// span trace (trace.json) into dir.
func writeTraceFiles(dir, name string, tm *meter, tr traced) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), tr.profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	err = writeTrace(f, "numamig-bench "+name, tm.spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerShares are the repository packages whose CPU share the traced
// run reports.
var layerShares = []string{"sim", "vm", "mem", "placement", "migrate", "kern", "telemetry", "tenancy", "omp", "autonuma", "workload"}

// perLayer reports the per-layer metrics: the traced phase's profile
// shares and simulated counts, the tracing overhead against the timed
// phase m (the two phases' reference-speed scales are f and tf), the
// layer probes and the per-family grid times.
func (p *printer) perLayer(seed int64, m, tm *meter, tr traced, f, tf float64) error {
	prof, err := parseProfile(bytes.NewReader(tr.profile))
	if err != nil {
		return err
	}
	shares, park, fluid := prof.cpuShares()
	note := fmt.Sprintf("(%d traced passes)", len(tm.passWall))
	for _, l := range layerShares {
		p.put(l+".cpu_share", shares[l], "ratio", "(CPU profile, innermost repository frame)")
	}
	p.put("sim.park_cpu_share", park, "ratio", "(samples with sim.(*Proc).park on the stack)")
	p.put("sim.fluid_cpu_share", fluid, "ratio", "(samples with a sim.(*Fluid) method on the stack)")
	p.put("go.gc_cpu_share", shares["go.gc"], "ratio", "(GC stacks without a repository frame)")
	p.put("go.other_cpu_share", shares["go.other"], "ratio", "(other stacks without a repository frame)")
	p.put("go.alloc_mb", float64(tr.allocBytes)/(1<<20), "MiB", note)
	p.put("go.gc_cycles", float64(tr.gcCycles), "count", note)

	c := tr.counts
	untraced := median(m.passWall)
	p.put("sim.events", float64(c.Events), "count", note)
	p.put("sim.host_ns_per_event", untraced*1e9*float64(len(tm.passWall))/float64(c.Events), "ns", "(untraced wall_s over events per pass)")
	p.put("kern.demand_allocs", float64(c.DemandAllocs), "count", note)
	p.put("kern.faults", float64(c.Faults), "count", note)
	p.put("kern.syscalls", float64(c.Syscalls), "count", note)
	p.put("kern.tlb_shootdowns", float64(c.TLBShootdowns), "count", note)
	p.put("kern.ptes_scanned", float64(c.PTEsScanned), "count", note)
	p.put("migrate.requests", float64(c.Requests), "count", note)
	p.put("migrate.pages_moved", float64(c.Moved), "count", note)
	p.put("migrate.retry_passes", float64(c.RetryPasses), "count", note)
	p.put("migrate.useful_ratio", c.usefulRatio(), "ratio", "(moved / (moved+busy+raced+absent+local))")
	p.put("telemetry.events", float64(c.BusEvents), "count", note)
	p.put("trace_overhead", median(tm.passWall)*tf/(untraced*f), "ratio", "(traced over untraced median pass wall, at reference speed)")

	for _, pr := range probes(seed) {
		res, err := pr.measure()
		if err != nil {
			return fmt.Errorf("probe %s: %w", pr.name, err)
		}
		p.put(pr.name, res.value, pr.unit, fmt.Sprintf("(probe, median of %d batches)", probeBatches))
		if pr.allocKey != "" {
			p.put(pr.allocKey, res.bytesPerOp, "B/op", "(probe allocation)")
		}
	}
	fam, err := familyHostSeconds(seed)
	if err != nil {
		return err
	}
	for _, f := range exp.Families() {
		p.put("exp.family_host_s."+f, fam[f], "s", fmt.Sprintf("(serial grid pass, median of %d)", familyPasses))
	}
	return nil
}
