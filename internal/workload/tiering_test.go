package workload

import "testing"

// TestTieringHysteresisKillsPingPong is the tiering subsystem's
// acceptance invariant: on the rotating-hot-set workload, promotion
// hysteresis must strictly reduce the promote/demote flip count —
// and the naive configuration must actually exhibit ping-pong,
// otherwise the comparison is vacuous. The strict-bind ballast must
// never leave its nodemask in either configuration.
func TestTieringHysteresisKillsPingPong(t *testing.T) {
	run := func(hyst bool) TieringResult {
		t.Helper()
		r, err := Tiering(TieringConfig{Hysteresis: hyst})
		if err != nil {
			t.Fatalf("hysteresis=%v: %v", hyst, err)
		}
		if r.Absent != 0 {
			t.Fatalf("hysteresis=%v: %d pages absent (allocation failure escaped)", hyst, r.Absent)
		}
		if r.BindOffMask != 0 {
			t.Fatalf("hysteresis=%v: %d strict-bind pages escaped their nodemask: hist=%v",
				hyst, r.BindOffMask, r.BindHist)
		}
		if r.Demoted == 0 {
			t.Fatalf("hysteresis=%v: demotion never ran — the workload exerts no pressure", hyst)
		}
		if r.Auto.PagesPromoted == 0 {
			t.Fatalf("hysteresis=%v: autonuma never promoted — the hot window never localizes", hyst)
		}
		return r
	}
	with := run(true)
	without := run(false)
	if without.Flips == 0 {
		t.Fatal("no promote/demote flips without hysteresis: the rotating hot set is not chasing")
	}
	if with.Flips >= without.Flips {
		t.Fatalf("hysteresis did not reduce ping-pong: %d flips with vs %d without",
			with.Flips, without.Flips)
	}
	if with.Stats.KswapdHysteresisSkips == 0 {
		t.Fatal("hysteresis enabled but the demotion scan never skipped a protected page")
	}
	// The nodemask gate engaged: the bind ballast was cold on a
	// pressured node, so the scan must have considered and refused it.
	if with.Stats.KswapdMaskSkips == 0 || without.Stats.KswapdMaskSkips == 0 {
		t.Fatalf("nodemask gate never engaged: skips with=%d without=%d",
			with.Stats.KswapdMaskSkips, without.Stats.KswapdMaskSkips)
	}
}

// TestTieringDeterminism: identical configs produce identical results —
// the tier targets, hysteresis stamps and flip counters are all
// deterministic DES citizens.
func TestTieringDeterminism(t *testing.T) {
	run := func() TieringResult {
		r, err := Tiering(TieringConfig{Seed: 5, Hysteresis: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Dur != b.Dur || a.Flips != b.Flips || a.HotLocal != b.HotLocal || a.Stats != b.Stats {
		t.Fatalf("runs diverge:\n%+v\nvs\n%+v", a, b)
	}
}

// TestTieringConfigValidation: impossible configurations are rejected
// up front instead of deadlocking the simulation.
func TestTieringConfigValidation(t *testing.T) {
	if _, err := Tiering(TieringConfig{Nodes: 1}); err == nil {
		t.Error("single-node tiering accepted")
	}
}
