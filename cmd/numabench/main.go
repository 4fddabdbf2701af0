// Command numabench runs the scenario grid and the campaigns that
// regenerate the paper's tables and figures on the simulated platform.
//
// Usage:
//
//	numabench -artifact artifacts/paper.json  # every paper figure/table -> artifacts/paper/figures.txt
//	numabench -artifact artifacts/fig7.json   # Figure 7 campaign: repeats + grouped analysis
//	numabench -grid                       # full scenario grid, aligned table
//	numabench -grid -parallel 8 -quick    # trimmed grid, 8 workers
//	numabench -grid -format json          # machine-readable output
//	numabench -grid -families replication # one scenario family
//	numabench -grid -nodes 1,2,4,8        # sweep machine sizes explicitly
//	numabench -grid -cores-per-node 2     # narrower sockets
//	numabench -list                       # enumerate families + counts
//
// Grid families: see -list (all registered families).
//
// Grid output is deterministic: the same -seed produces byte-identical
// JSON/CSV whatever -parallel is, because every scenario runs its own
// simulated system.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	numamig "numamig"
	"numamig/internal/artifact"
	"numamig/internal/exp"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
)

// options holds the parsed command line.
type options struct {
	quick, grid, list      bool
	families, format       string
	parallel, coresPerNode int
	seed                   int64
	nodes, scenario, trace string
	artifact, artifactOut  string
	cpuprofile, memprofile string
}

func main() {
	var o options
	flag.BoolVar(&o.quick, "quick", false, "reduced parameter sweeps for -grid/-list")
	flag.BoolVar(&o.grid, "grid", false, "run the scenario grid (internal/exp)")
	flag.BoolVar(&o.list, "list", false, "list registered scenario families with counts and descriptions")
	flag.StringVar(&o.families, "families", "", "comma-separated scenario families for -grid (default: all of "+strings.Join(exp.Families(), ", ")+")")
	flag.IntVar(&o.parallel, "parallel", 0, "grid worker goroutines (0 = GOMAXPROCS)")
	flag.StringVar(&o.format, "format", "table", "grid output format: table, csv or json")
	flag.Int64Var(&o.seed, "seed", 1, "base deterministic seed for -grid scenarios")
	flag.StringVar(&o.nodes, "nodes", "", "comma-separated topology.Grid node counts to sweep for -grid/-list (subset of 1..1024; default per family)")
	flag.IntVar(&o.coresPerNode, "cores-per-node", 0, "cores per node for -grid/-list scenarios (0 = the Opteron host's 4)")
	flag.StringVar(&o.scenario, "scenario", "", "run only the -grid scenario with this exact ID")
	flag.StringVar(&o.trace, "trace", "", "write a chrome-trace (chrome://tracing / Perfetto) JSON of the run to this file; requires -grid narrowed to exactly one scenario")
	flag.StringVar(&o.artifact, "artifact", "", "run the campaign described by this JSON config (internal/artifact): paper figures, grid repeats and their analysis")
	flag.StringVar(&o.artifactOut, "artifact-out", "", "artifact output directory (default: <config dir>/<campaign name>)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	err := profiled(o.cpuprofile, o.memprofile, func() error { return run(o) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "numabench:", err)
		code := 1
		if errors.As(err, new(usageError)) {
			code = 2
		}
		os.Exit(code)
	}
}

// usageError is a command-line mistake. main reports it like any other
// error but exits 2, the status the flag package gives an undefined
// flag.
type usageError string

func (e usageError) Error() string { return string(e) }

// profiled runs fn under the requested profiles: a CPU profile written
// to cpu and an allocation profile written to mem, either "" for none.
// Both are stopped and written before it returns, also when fn fails,
// because a failed run is the one most worth a profile.
func profiled(cpu, mem string, fn func() error) (err error) {
	if cpu != "" {
		f, cerr := os.Create(cpu)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if mem != "" {
		defer func() { err = errors.Join(err, writeAllocProfile(mem)) }()
	}
	return fn()
}

// writeAllocProfile runs a final GC and writes the allocation profile,
// which holds both the in-use and the cumulative views.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(o options) error {
	nodeList, err := parseNodeList(o.nodes)
	if err != nil {
		return err
	}
	if o.coresPerNode < 0 {
		return usageError("-cores-per-node must be >= 0")
	}
	opts := exp.Options{Quick: o.quick, Seed: o.seed, NodeList: nodeList, CoresPerNode: o.coresPerNode}

	switch {
	case o.list:
		return listFamilies(os.Stdout, opts)
	case o.artifact != "":
		if o.grid {
			return usageError("-artifact cannot combine with -grid")
		}
		return runArtifact(o)
	case o.artifactOut != "":
		return usageError("-artifact-out requires -artifact")
	case o.grid:
		return runGrid(o, opts)
	case o.scenario != "" || o.trace != "":
		return usageError("-scenario and -trace require -grid")
	}
	return usageError("need -grid, -list or -artifact")
}

// runArtifact executes a campaign (internal/artifact): parse and
// validate the declarative config, run its grid and experiments
// (streaming raw rows to raw.csv as repeats complete, when the config
// writes raw.csv), then write the rendered artifacts. Output bytes are
// independent of -parallel and of wall-clock time.
func runArtifact(o options) error {
	data, err := os.ReadFile(o.artifact)
	if err != nil {
		return err
	}
	cfg, err := artifact.ParseConfig(data)
	if err != nil {
		return err
	}
	outDir := o.artifactOut
	if outDir == "" {
		outDir = filepath.Join(filepath.Dir(o.artifact), cfg.Name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ro := artifact.RunOptions{Parallel: o.parallel, Log: os.Stderr}
	// Stream the raw rows as each repeat completes; WriteDir rewrites
	// the same bytes at the end, so an interrupted campaign still
	// leaves its completed repeats on disk.
	var raw *os.File
	if cfg.Wants(artifact.OutCSV) {
		if raw, err = os.Create(filepath.Join(outDir, artifact.RawCSVName)); err != nil {
			return err
		}
		ro.RawOut = raw
	}
	start := time.Now()
	out, runErr := artifact.RunCampaign(cfg, ro)
	if raw != nil {
		if cerr := raw.Close(); runErr == nil {
			runErr = cerr
		}
	}
	if runErr != nil {
		return runErr
	}
	if err := out.WriteDir(outDir); err != nil {
		return err
	}
	var ran []string
	if an := out.Analysis; an != nil {
		ran = append(ran, fmt.Sprintf("%d scenarios x %d repeats, max rel std %.4f, %d speedup ratios",
			an.Scenarios, cfg.Repeats, an.MaxRelStd, len(an.Speedups)))
	}
	if n := len(cfg.Experiments); n > 0 {
		ran = append(ran, fmt.Sprintf("%d experiments", n))
	}
	fmt.Printf("artifact: campaign %s -> %s (%s, %v wall time)\n",
		cfg.Name, outDir, strings.Join(ran, ", "), time.Since(start).Round(time.Millisecond))
	return nil
}

// parseNodeList parses the -nodes sweep flag into topology.Grid node
// counts, rejecting sizes the grid generator cannot build.
func parseNodeList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, usageError(fmt.Sprintf("bad -nodes entry %q", part))
		}
		if n < 1 || n > topology.MaxNodes {
			return nil, usageError(fmt.Sprintf("-nodes entry %d unsupported (topology.Grid builds 1..%d nodes)", n, topology.MaxNodes))
		}
		out = append(out, n)
	}
	return out, nil
}

// listFamilies enumerates the registered scenario families with their
// scenario counts (full and -quick) and one-line descriptions, so the
// grid is discoverable without reading internal/exp.
func listFamilies(w io.Writer, opts exp.Options) error {
	total, totalQuick := 0, 0
	for _, name := range exp.Families() {
		full := opts
		full.Quick = false
		fullScs, err := exp.Scenarios([]string{name}, full)
		if err != nil {
			return err
		}
		trim := opts
		trim.Quick = true
		trimmed, err := exp.Scenarios([]string{name}, trim)
		if err != nil {
			return err
		}
		total += len(fullScs)
		totalQuick += len(trimmed)
		fmt.Fprintf(w, "%-13s %4d scenarios (%3d quick)  %s\n",
			name, len(fullScs), len(trimmed), exp.Describe(name))
	}
	fmt.Fprintf(w, "%-13s %4d scenarios (%3d quick)\n", "total", total, totalQuick)
	return nil
}

// runGrid expands the requested families and executes them through the
// concurrent runner, rendering in the requested format. -scenario
// filters to one exact scenario ID; -trace additionally records that
// run's telemetry stream as chrome-trace JSON.
func runGrid(o options, opts exp.Options) error {
	var names []string
	if o.families != "" {
		for _, n := range strings.Split(o.families, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	switch o.format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (want table, csv or json)", o.format)
	}
	scs, err := exp.Scenarios(names, opts)
	if err != nil {
		return err
	}
	if o.scenario != "" {
		kept := scs[:0]
		for _, s := range scs {
			if s.ID == o.scenario {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no scenario with ID %q (check -families/-quick/-nodes)", o.scenario)
		}
		scs = kept
	}
	if len(scs) == 0 {
		return fmt.Errorf("no scenarios generated (the requested -families need more than the given -nodes)")
	}

	var rec *telemetry.Recorder
	if o.trace != "" {
		if len(scs) != 1 {
			return fmt.Errorf("-trace needs exactly one scenario, have %d (narrow with -scenario)", len(scs))
		}
		// One scenario, one System: serialize and hook its bus. The
		// observer is process-global, so clear it before returning.
		o.parallel = 1
		numamig.SetSystemObserver(func(sys *numamig.System) {
			rec = telemetry.Record(sys.Bus())
		})
		defer numamig.SetSystemObserver(nil)
	}

	start := time.Now()
	results := exp.Runner{Parallel: o.parallel}.Run(scs)

	if o.trace != "" {
		if rec == nil {
			return fmt.Errorf("-trace: the scenario built no simulated system")
		}
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		if err := rec.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "numabench: wrote %d trace events to %s\n", len(rec.Events), o.trace)
	}
	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
		}
	}
	switch o.format {
	case "json":
		if err := exp.WriteJSON(os.Stdout, results); err != nil {
			return err
		}
	case "csv":
		exp.WriteCSV(os.Stdout, results)
	default: // table
		exp.Table(results).Write(os.Stdout)
		fmt.Printf("# (%d scenarios, %d failed, %v wall time)\n",
			len(results), failed, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(results))
	}
	return nil
}
