// Command numabench regenerates the paper's tables and figures on the
// simulated platform and runs the scenario grid.
//
// Usage:
//
//	numabench -exp fig4                   # one experiment, full scale
//	numabench -exp table1 -quick          # reduced sweep
//	numabench -all -quick                 # every figure/table
//	numabench -grid                       # full scenario grid, aligned table
//	numabench -grid -parallel 8 -quick    # trimmed grid, 8 workers
//	numabench -grid -format json          # machine-readable output
//	numabench -grid -families replication # one scenario family
//	numabench -grid -nodes 1,2,4,8        # sweep machine sizes explicitly
//	numabench -grid -cores-per-node 2     # narrower sockets
//	numabench -list                       # enumerate families + counts
//	numabench -artifact artifacts/fig7.json  # paper-artifact campaign: repeats + grouped analysis
//
// Experiments: fig4 fig5 fig6a fig6b fig7 table1 fig8 blas1.
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
	"numamig/internal/bench"
	"numamig/internal/exp"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
)

func main() {
	expID := flag.String("exp", "", "experiment id ("+strings.Join(bench.Experiments(), ", ")+")")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced parameter sweeps (seconds instead of minutes)")
	grid := flag.Bool("grid", false, "run the scenario grid (internal/exp) instead of one experiment")
	list := flag.Bool("list", false, "list registered scenario families with counts and descriptions")
	families := flag.String("families", "", "comma-separated scenario families for -grid (default: all of "+strings.Join(exp.Families(), ", ")+")")
	parallel := flag.Int("parallel", 0, "grid worker goroutines (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "grid output format: table, csv or json")
	seed := flag.Int64("seed", 1, "base deterministic seed for -grid scenarios")
	nodes := flag.String("nodes", "", "comma-separated topology.Grid node counts to sweep for -grid/-list (subset of 1..1024; default per family)")
	coresPerNode := flag.Int("cores-per-node", 0, "cores per node for -grid/-list scenarios (0 = the Opteron host's 4)")
	scenario := flag.String("scenario", "", "run only the -grid scenario with this exact ID")
	trace := flag.String("trace", "", "write a chrome-trace (chrome://tracing / Perfetto) JSON of the run to this file; requires -grid narrowed to exactly one scenario")
	artifactCfg := flag.String("artifact", "", "run the paper-artifact campaign described by this JSON config (internal/artifact)")
	artifactOut := flag.String("artifact-out", "", "artifact output directory (default: <config dir>/<campaign name>)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	err := profiled(*cpuprofile, *memprofile, func() error {
		return run(*expID, *all, *quick, *grid, *list, *families, *parallel, *format,
			*seed, *nodes, *coresPerNode, *scenario, *trace, *artifactCfg, *artifactOut)
	})
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

func run(expID string, all, quick, grid, list bool, families string, parallel int,
	format string, seed int64, nodes string, coresPerNode int,
	scenario, trace, artifactCfg, artifactOut string) error {

	nodeList, err := parseNodeList(nodes)
	if err != nil {
		return err
	}
	if coresPerNode < 0 {
		return usageError("-cores-per-node must be >= 0")
	}
	opts := exp.Options{Quick: quick, Seed: seed, NodeList: nodeList, CoresPerNode: coresPerNode}

	if list {
		return listFamilies(os.Stdout, opts)
	}
	if artifactCfg != "" {
		if grid || all || expID != "" {
			return usageError("-artifact cannot combine with -grid/-exp/-all")
		}
		return runArtifact(artifactCfg, artifactOut, parallel)
	}
	if artifactOut != "" {
		return usageError("-artifact-out requires -artifact")
	}
	if grid {
		return runGrid(families, parallel, format, scenario, trace, opts)
	}
	if scenario != "" || trace != "" {
		return usageError("-scenario and -trace require -grid")
	}

	o := bench.Options{Quick: quick}
	var ids []string
	switch {
	case all:
		ids = bench.Experiments()
	case expID != "":
		ids = strings.Split(expID, ",")
	default:
		return usageError("need -exp <id>, -all, -grid, -list or -artifact; ids: " + strings.Join(bench.Experiments(), ", "))
	}
	for _, id := range ids {
		start := time.Now()
		if err := bench.Run(strings.TrimSpace(id), o, os.Stdout); err != nil {
			return err
		}
		fmt.Printf("# (%s regenerated in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runArtifact executes a paper-artifact campaign (internal/artifact):
// parse + validate the declarative config, run the grid once per
// repeat (streaming raw rows to raw.csv as repeats complete), then
// write the grouped analysis artifacts. Output bytes are independent
// of -parallel and of wall-clock time.
func runArtifact(cfgPath, outDir string, parallel int) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	cfg, err := artifact.ParseConfig(data)
	if err != nil {
		return err
	}
	if outDir == "" {
		outDir = filepath.Join(filepath.Dir(cfgPath), cfg.Name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ro := artifact.RunOptions{Parallel: parallel, Log: os.Stderr}
	// Stream the raw rows as each repeat completes; WriteDir rewrites
	// the same bytes at the end, so an interrupted campaign still
	// leaves its completed repeats on disk.
	raw, err := os.Create(filepath.Join(outDir, artifact.RawCSVName))
	if err != nil {
		return err
	}
	ro.RawOut = raw
	start := time.Now()
	out, runErr := artifact.RunCampaign(cfg, ro)
	if cerr := raw.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		return runErr
	}
	if err := out.WriteDir(outDir); err != nil {
		return err
	}
	fmt.Printf("artifact: campaign %s: %d scenarios x %d repeats -> %s (max rel std %.4f, %d speedup ratios, %v wall time)\n",
		cfg.Name, out.Analysis.Scenarios, cfg.Repeats, outDir,
		out.Analysis.MaxRelStd, len(out.Analysis.Speedups), time.Since(start).Round(time.Millisecond))
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
// concurrent runner, rendering in the requested format. scenario
// filters to one exact scenario ID; trace additionally records that
// run's telemetry stream as chrome-trace JSON.
func runGrid(families string, parallel int, format, scenario, trace string, opts exp.Options) error {
	var names []string
	if families != "" {
		for _, n := range strings.Split(families, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	switch format {
	case "table", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (want table, csv or json)", format)
	}
	scs, err := exp.Scenarios(names, opts)
	if err != nil {
		return err
	}
	if scenario != "" {
		kept := scs[:0]
		for _, s := range scs {
			if s.ID == scenario {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no scenario with ID %q (check -families/-quick/-nodes)", scenario)
		}
		scs = kept
	}
	if len(scs) == 0 {
		return fmt.Errorf("no scenarios generated (the requested -families need more than the given -nodes)")
	}

	var rec *telemetry.Recorder
	if trace != "" {
		if len(scs) != 1 {
			return fmt.Errorf("-trace needs exactly one scenario, have %d (narrow with -scenario)", len(scs))
		}
		// One scenario, one System: serialize and hook its bus. The
		// observer is process-global, so clear it before returning.
		parallel = 1
		numamig.SetSystemObserver(func(sys *numamig.System) {
			rec = telemetry.Record(sys.Bus())
		})
		defer numamig.SetSystemObserver(nil)
	}

	start := time.Now()
	results := exp.Runner{Parallel: parallel}.Run(scs)

	if trace != "" {
		if rec == nil {
			return fmt.Errorf("-trace: the scenario built no simulated system")
		}
		f, err := os.Create(trace)
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
		fmt.Fprintf(os.Stderr, "numabench: wrote %d trace events to %s\n", len(rec.Events), trace)
	}
	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
		}
	}
	switch format {
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
