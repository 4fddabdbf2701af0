package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// numabench is the command under test, built once by TestMain so every
// case runs the real main, exit status included.
var numabench string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "numabench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	numabench = filepath.Join(dir, "numabench")
	code := 1
	if out, err := exec.Command("go", "build", "-o", numabench, ".").CombinedOutput(); err != nil {
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
		{nil, 2, "need -exp <id>, -all, -grid, -list or -artifact; ids: "},
		{[]string{"-artifact", "c.json", "-grid"}, 2, "-artifact cannot combine with -grid/-exp/-all"},
		{[]string{"-artifact", "c.json", "-exp", "fig4"}, 2, "-artifact cannot combine with -grid/-exp/-all"},
		{[]string{"-artifact", "c.json", "-all"}, 2, "-artifact cannot combine with -grid/-exp/-all"},
		{[]string{"-artifact-out", "out"}, 2, "-artifact-out requires -artifact"},
		{[]string{"-scenario", "migration/x"}, 2, "-scenario and -trace require -grid"},
		{[]string{"-exp", "fig4", "-trace", "t.json"}, 2, "-scenario and -trace require -grid"},
		{[]string{"-grid", "-nodes", "2,x"}, 2, `bad -nodes entry "x"`},
		{[]string{"-grid", "-nodes", "0"}, 2, "-nodes entry 0 unsupported (topology.Grid builds 1..1024 nodes)"},
		{[]string{"-list", "-nodes", "1025"}, 2, "-nodes entry 1025 unsupported"},
		{[]string{"-grid", "-cores-per-node", "-1"}, 2, "-cores-per-node must be >= 0"},
		{[]string{"-grid", "-format", "xml"}, 1, `unknown -format "xml" (want table, csv or json)`},
		{[]string{"-grid", "-quick", "-families", "migration", "-trace", "t.json"}, 1, "-trace needs exactly one scenario, have 20"},
		{[]string{"-grid", "-families", "nope"}, 1, `unknown family "nope"`},
		{[]string{"-exp", "nope"}, 1, `unknown experiment "nope"`},
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
