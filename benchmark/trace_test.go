package main

import (
	"bytes"
	"math"
	"os/exec"
	"path/filepath"
	"testing"

	numamig "numamig"
	"numamig/internal/workload"
)

// tracedRun sets a fresh workload up and runs its traced phase the way
// a --trace 1 run does, writing trace.json and cpu.pprof into dir.
func tracedRun(t *testing.T, w workloadRunner, passes int, lit bool, dir string) traced {
	t.Helper()
	obs := &observer{lit: lit}
	numamig.SetSystemObserver(obs.observe)
	defer numamig.SetSystemObserver(nil)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	tm, tr, err := tracePhase(w, passes, obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeTraceFiles(dir, "test", tm, tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracedRunsRepeatAndValidate(t *testing.T) {
	cases := []struct {
		name   string
		make   func() workloadRunner
		passes int
		lit    bool
	}{
		{"serve", func() workloadRunner {
			return &serveObserved{seed: 3, callsPerPass: 2, cfg: workload.ServeConfig{FastNodes: 2, Tenants: 8, Rounds: 4}}
		}, 2, true},
		{"churn", func() workloadRunner {
			return &churn{seed: 3, nodes: 4, coresPerNode: 2, wavesPerPass: 4}
		}, 2, false},
		{"grid", func() workloadRunner {
			return &gridAll{env: runEnv{seed: 3, workers: 2}, families: []string{"migration"}}
		}, 2, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dirs := []string{t.TempDir(), t.TempDir()}
			first := tracedRun(t, c.make(), c.passes, c.lit, dirs[0])
			second := tracedRun(t, c.make(), c.passes, c.lit, dirs[1])
			if first.counts != second.counts {
				t.Errorf("simulated counts differ between runs at one seed:\n%+v\n%+v", first.counts, second.counts)
			}
			if first.counts.Events == 0 || first.counts.Faults == 0 || first.counts.Moved == 0 {
				t.Errorf("traced counts missing work: %+v", first.counts)
			}
			if c.lit != (first.counts.BusEvents > 0) {
				t.Errorf("lit %t but %d bus events", c.lit, first.counts.BusEvents)
			}

			check := exec.Command("go", "run", "./tools/tracecheck", filepath.Join(dirs[0], "trace.json"))
			check.Dir = ".." // the repository root
			out, err := check.CombinedOutput()
			if err != nil {
				t.Fatalf("tracecheck: %v\n%s", err, out)
			}

			prof, err := parseProfile(bytes.NewReader(first.profile))
			if err != nil {
				t.Fatal(err)
			}
			shares, _, _ := prof.cpuShares()
			sum := 0.0
			for _, v := range shares {
				sum += v
			}
			if len(prof.samples) > 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("CPU shares sum to %g over %d samples", sum, len(prof.samples))
			}
		})
	}
}
