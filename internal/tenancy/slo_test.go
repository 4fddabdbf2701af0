package tenancy

import (
	"testing"

	"numamig/internal/sim"
	"numamig/internal/telemetry"
	"numamig/internal/topology"
)

// TestMonitorFoldsSLOTopics drives a Ledger and a Monitor on one bus:
// the ledger's cap violations, five probe latencies and three
// migration batches that leave one bandwidth window empty.
func TestMonitorFoldsSLOTopics(t *testing.T) {
	var now sim.Time
	bus := telemetry.NewBus(func() sim.Time { return now })
	const width = sim.Millisecond
	mon := NewMonitor(bus, width)
	ledger := NewLedger(bus, func(n topology.NodeID) int { return int(n) }) // node 0 fast, node 1 slow

	ten := ledger.Admit(1, "t", ClassLatencySensitive, 2)
	ledger.Charge(ten, 0, 5) // 3 pages past the cap of 2
	ledger.Charge(ten, 1, 4) // slow tier: outside the cap
	for _, d := range []sim.Time{4, 1, 5, 2, 3} {
		bus.Publish(telemetry.Event{
			Topic: telemetry.TopicClassLatency, Task: ten.ID,
			Dur: d, Value: float64(ClassLatencySensitive),
		})
	}
	// 1000, 2000 and 3000 bytes in windows 0, 2 and 3 of 1 ms each:
	// 1, 2 and 3 MB/s, with window 1 empty.
	for _, b := range []struct {
		window int
		bytes  float64
	}{{0, 1000}, {2, 2000}, {3, 3000}} {
		now = sim.Time(b.window) * width
		bus.Publish(telemetry.Event{Topic: telemetry.TopicMigrateBatch, Bytes: b.bytes})
	}

	st := mon.Finalize()
	if st.CapViolations != 3 || st.CapViolations != ledger.CapViolations {
		t.Errorf("monitor saw %d cap violations, ledger counted %d, want 3 each", st.CapViolations, ledger.CapViolations)
	}
	ls := ClassLatencySensitive
	if st.Samples[ls] != 5 || st.P50[ls] != 3 || st.P99[ls] != 5 {
		t.Errorf("latency-sensitive samples %d, p50 %v, p99 %v; want 5, 3, 5", st.Samples[ls], st.P50[ls], st.P99[ls])
	}
	if st.Samples[ClassBatch] != 0 {
		t.Errorf("batch class got %d samples, want 0", st.Samples[ClassBatch])
	}
	if st.SteadyMigrateBWMBps != 2 {
		t.Errorf("steady migration bandwidth %g MB/s, want the median busy window's 2", st.SteadyMigrateBWMBps)
	}
}
