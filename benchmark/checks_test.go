package main

import (
	"os"
	"path/filepath"
	"testing"

	"numamig/internal/workload"
)

// runPasses sets w up once and runs passes passes of it, returning the
// units attempted.
func runPasses(t *testing.T, w workloadRunner, passes int) int {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	m := fixedMeter(passes)
	if err := measure(w, m, nil); err != nil {
		t.Fatal(err)
	}
	return m.units()
}

// verdict runs w's checks and folds them into the run's result line.
func verdict(w workloadRunner, units int) report {
	t, err := w.check()
	return newReport(units, t.failed, err, nil)
}

func wantClean(t *testing.T, r report) {
	t.Helper()
	if r.Failed != 0 || r.exitCode() != 0 {
		t.Fatalf("real outputs: %d of %d units failed, exit %d", r.Failed, r.Attempted, r.exitCode())
	}
}

func wantAllFailed(t *testing.T, r report) {
	t.Helper()
	if r.failRatio() != 1 || r.exitCode() == 0 {
		t.Fatalf("bad outputs: fail_ratio %g, exit %d; want 1 and non-zero", r.failRatio(), r.exitCode())
	}
}

func TestGridCheck(t *testing.T) {
	g := &gridAll{
		env:        runEnv{seed: 1, workers: 2},
		families:   []string{"migration", "serve"},
		fig7Config: filepath.Join("..", "artifacts", "fig7.json"),
		fig7Dir:    filepath.Join("..", "artifacts", "fig7"),
	}
	units := runPasses(t, g, 2)
	wantClean(t, verdict(g, units))

	// A copy of the committed artifacts with one byte flipped.
	dir := t.TempDir()
	entries, err := os.ReadDir(g.fig7Dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		data, err := os.ReadFile(filepath.Join(g.fig7Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			data[len(data)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g.fig7Dir = dir
	wantAllFailed(t, verdict(g, units))
}

func TestLUCheck(t *testing.T) {
	l := &luTable1{seed: 1, rows: []table1Row{{2048, 256}}}
	units := runPasses(t, l, 2)
	wantClean(t, verdict(l, units))

	// Next-touch no longer serves fewer bytes remotely than static.
	for _, p := range l.passes {
		p[0].nt.RemoteFrac = p[0].static.RemoteFrac
	}
	wantAllFailed(t, verdict(l, units))
}

func TestChurnCheck(t *testing.T) {
	c := &churn{seed: 1, nodes: 4, coresPerNode: 2, wavesPerPass: 3}
	units := runPasses(t, c, 1)
	wantClean(t, verdict(c, units))

	c.passes[0].pagesMoved--
	wantAllFailed(t, verdict(c, units))
}

func TestServeCheck(t *testing.T) {
	s := &serveObserved{seed: 1, callsPerPass: 1, cfg: workload.ServeConfig{FastNodes: 2, Tenants: 8, Rounds: 4}}
	units := runPasses(t, s, 1)
	wantClean(t, verdict(s, units))

	s.calls[0].CapViolations = 1
	wantAllFailed(t, verdict(s, units))
}
