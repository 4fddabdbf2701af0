package workload

import (
	"testing"
)

func TestPhasePolicyStrings(t *testing.T) {
	for _, p := range PhasePolicies() {
		if p.String() == "" || p.String() == "invalid" {
			t.Fatalf("policy %d has bad string", p)
		}
		got, err := PhasePolicyOf(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip of %q: %v %v", p.String(), got, err)
		}
	}
	if PhasePolicy(99).String() != "invalid" {
		t.Fatal("invalid policy string")
	}
	if _, err := PhasePolicyOf("bogus"); err == nil {
		t.Fatal("bogus policy parsed")
	}
}

func TestPhaseShiftPolicies(t *testing.T) {
	run := func(pol PhasePolicy) PhaseShiftResult {
		r, err := PhaseShift(PhaseShiftConfig{Nodes: 4, Pages: 256, Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if r.Absent != 0 {
			t.Fatalf("%s: %d absent pages", pol, r.Absent)
		}
		return r
	}
	static := run(PhaseStatic)
	if static.OnFinal != 0 {
		t.Fatalf("static run moved pages: hist=%v", static.Hist)
	}
	for _, pol := range []PhasePolicy{PhaseSync, PhaseLazyKernel, PhaseLazyUser, PhaseAutoNUMA} {
		r := run(pol)
		if r.OnFinal < 0.9 {
			t.Fatalf("%s converged only %.0f%% onto the final node (hist=%v)", pol, r.OnFinal*100, r.Hist)
		}
		if r.Dur >= static.Dur {
			t.Fatalf("%s (%v) should beat static (%v) on the rotation", pol, r.Dur, static.Dur)
		}
	}
	auto := run(PhaseAutoNUMA)
	if auto.Auto.ScanTicks == 0 || auto.Stats.NumaHintFaults == 0 {
		t.Fatalf("autonuma run shows no balancing: %+v", auto.Auto)
	}
	if sync := run(PhaseSync); sync.Stats.NumaHintFaults != 0 {
		t.Fatal("manual run took hinting faults")
	}
}

func TestPhaseShiftSingleRotationMatchesPaperShape(t *testing.T) {
	// Hops=1 is the paper's central scenario: one move to the farthest
	// node. The workset must fully follow under every active policy.
	r, err := PhaseShift(PhaseShiftConfig{Nodes: 4, Pages: 128, Hops: 1, Policy: PhaseLazyKernel})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hist[3] != 128 {
		t.Fatalf("workset did not follow to node 3: %v", r.Hist)
	}
}
