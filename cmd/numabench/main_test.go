package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"numamig/internal/artifact"
	"numamig/internal/bench"
	"numamig/internal/exp"
)

// numabench is the command under test, built once by TestMain so every
// case runs the real main, exit status included. A race-built test
// binary builds it with the race detector, so the -parallel campaign
// runs check that no simulated state is shared between goroutines.
var numabench string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "numabench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	numabench = filepath.Join(dir, "numabench")
	code := 1
	args := []string{"build", "-o", numabench}
	if raceEnabled {
		args = append(args, "-race")
	}
	if out, err := exec.Command("go", append(args, ".")...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building numabench: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// invoke runs numabench with args in dir and returns its exit status and
// standard error.
func invoke(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(numabench, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("numabench %s: %v", strings.Join(args, " "), err)
	return 0, ""
}

func TestCommandLineErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		msg    string
	}{
		{nil, 2, "need -grid, -list or -artifact"},
		{[]string{"-artifact", "c.json", "-grid"}, 2, "-artifact cannot combine with -grid"},
		{[]string{"-artifact-out", "out"}, 2, "-artifact-out requires -artifact"},
		{[]string{"-scenario", "migration/x"}, 2, "-scenario and -trace require -grid"},
		{[]string{"-quick", "-trace", "t.json"}, 2, "-scenario and -trace require -grid"},
		{[]string{"-grid", "-nodes", "2,x"}, 2, `bad -nodes entry "x"`},
		{[]string{"-grid", "-nodes", "0"}, 2, "-nodes entry 0 unsupported (topology.Grid builds 1..1024 nodes)"},
		{[]string{"-list", "-nodes", "1025"}, 2, "-nodes entry 1025 unsupported"},
		{[]string{"-grid", "-cores-per-node", "-1"}, 2, "-cores-per-node must be >= 0"},
		{[]string{"-grid", "-format", "xml"}, 1, `unknown -format "xml" (want table, csv or json)`},
		{[]string{"-grid", "-quick", "-families", "migration", "-trace", "t.json"}, 1, "-trace needs exactly one scenario, have 20"},
		{[]string{"-grid", "-families", "nope"}, 1, `unknown family "nope"`},
		{[]string{"-artifact", "missing.json"}, 1, "missing.json: no such file"},
		// Paper figures are campaign experiments: -exp and -all are gone.
		{[]string{"-exp", "fig4"}, 2, "flag provided but not defined: -exp"},
		{[]string{"-all", "-quick"}, 2, "flag provided but not defined: -all"},
		// The flags of the retired perf harness are gone.
		{[]string{"-perf"}, 2, "flag provided but not defined: -perf"},
		{[]string{"-perf", "-scale"}, 2, "flag provided but not defined: -perf"},
		{[]string{"-scale"}, 2, "flag provided but not defined: -scale"},
		{[]string{"-serve"}, 2, "flag provided but not defined: -serve"},
		{[]string{"-perf-out", "out"}, 2, "flag provided but not defined: -perf-out"},
		{[]string{"-repeats", "3"}, 2, "flag provided but not defined: -repeats"},
	} {
		dir := t.TempDir()
		status, stderr := invoke(t, dir, tc.args...)
		if status != tc.status || !strings.Contains(stderr, tc.msg) {
			t.Errorf("numabench %s: exit %d, stderr %q; want exit %d and %q",
				strings.Join(tc.args, " "), status, stderr, tc.status, tc.msg)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("numabench %s: left %d files behind", strings.Join(tc.args, " "), len(entries))
		}
	}
}

// A failed run still writes both profiles: a failed grid is when a
// profile is most wanted.
func TestProfilesWrittenOnFailedRun(t *testing.T) {
	dir := t.TempDir()
	status, stderr := invoke(t, dir, "-grid", "-families", "nope", "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof")
	if status != 1 || !strings.Contains(stderr, `unknown family "nope"`) {
		t.Fatalf("exit %d, stderr %q; want exit 1 and the unknown family", status, stderr)
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Errorf("%s (%d bytes): %v", name, len(data), err)
			continue
		}
		if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
			t.Errorf("%s: %d bytes of profile, err %v", name, n, err)
		}
	}
}

// Every campaign config with a committed output directory regenerates
// it exactly: the same file set, byte for byte. A campaign that runs
// the grid regenerates at -parallel 1 and at 8, since its bytes must
// not depend on the worker count. artifacts/paper.json must name every
// experiment and artifacts/grid.json every scenario family, so no
// paper figure and no family goes unpinned.
func TestCommittedArtifactsRegenerate(t *testing.T) {
	root, err := filepath.Abs("../../artifacts")
	if err != nil {
		t.Fatal(err)
	}
	paper := readConfig(t, filepath.Join(root, "paper.json"))
	got := slices.Clone(paper.Experiments)
	slices.Sort(got)
	if want := bench.Experiments(); !slices.Equal(got, want) {
		t.Errorf("paper.json experiments %v, want every experiment %v", got, want)
	}
	if grid, want := readConfig(t, filepath.Join(root, "grid.json")), exp.Families(); !slices.Equal(grid.Families, want) {
		t.Errorf("grid.json families %v, want every family in registry order %v", grid.Families, want)
	}
	configs, err := filepath.Glob(filepath.Join(root, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var regenerated []string
	for _, path := range configs {
		cfg := readConfig(t, path)
		committed := filepath.Join(root, cfg.Name)
		if _, err := os.Stat(committed); errors.Is(err, fs.ErrNotExist) {
			continue
		}
		regenerated = append(regenerated, filepath.Base(path))
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			if len(cfg.Families) == 0 {
				regenerate(t, root, path, committed)
				return
			}
			for _, par := range []string{"1", "8"} {
				t.Run("parallel="+par, func(t *testing.T) {
					t.Parallel()
					regenerate(t, root, path, committed, "-parallel", par)
				})
			}
		})
	}
	for _, name := range []string{"paper.json", "grid.json"} {
		if !slices.Contains(regenerated, name) {
			t.Errorf("regenerated %v, which leaves out %s", regenerated, name)
		}
	}
}

// regenerate reruns the campaign config at path with the extra args and
// compares its output with the committed directory: the same file set,
// byte for byte. A differing file is reported at its first differing
// line, so a moved grid cell names its scenario.
func regenerate(t *testing.T, root, path, committed string, args ...string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out")
	if status, stderr := invoke(t, root, append([]string{"-artifact", path, "-artifact-out", out}, args...)...); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	want, got := dirFiles(t, committed), dirFiles(t, out)
	for name, data := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: not regenerated", name)
		} else if !bytes.Equal(g, data) {
			t.Errorf("%s: regenerated bytes differ from the committed ones at %s", name, firstDiff(data, g))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: regenerated but not committed", name)
		}
	}
}

// firstDiff describes the first line at which got departs from want.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	i := 0
	for i < len(w) && i < len(g) && bytes.Equal(w[i], g[i]) {
		i++
	}
	line := func(lines [][]byte) string {
		if i < len(lines) {
			return fmt.Sprintf("%q", lines[i])
		}
		return "end of file"
	}
	return fmt.Sprintf("line %d: committed %s, regenerated %s", i+1, line(w), line(g))
}

// -trace exports one scenario's event stream as a chrome trace that
// tools/tracecheck accepts.
func TestTraceExport(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	status, stderr := invoke(t, dir, "-grid", "-quick", "-families", "tiered", "-scenario", "tiered/rl1/hyst/r1/f2", "-trace", trace)
	if status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	check := exec.Command("go", "run", "./tools/tracecheck", trace)
	check.Dir = "../.." // the module root
	if out, err := check.CombinedOutput(); err != nil {
		t.Fatalf("tracecheck: %v\n%s", err, out)
	}
}

// A campaign whose outputs leave out csv writes no raw.csv.
func TestArtifactWritesOnlyConfiguredOutputs(t *testing.T) {
	dir := t.TempDir()
	cfg := `{"schema": "numamig-artifact/v1", "name": "rep", "families": ["replication"], "quick": true,
		"repeats": 1, "base_seed": 1, "seed_policy": "fixed", "outputs": ["json"]}`
	if err := os.WriteFile(filepath.Join(dir, "rep.json"), []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, stderr := invoke(t, dir, "-artifact", "rep.json"); status != 0 {
		t.Fatalf("exit %d: %s", status, stderr)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "rep"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != artifact.SummaryName {
		t.Errorf("campaign with outputs [json] wrote %v", entries)
	}
}

func readConfig(t *testing.T, path string) artifact.Config {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := artifact.ParseConfig(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return cfg
}

// dirFiles returns the contents of every file in dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}
