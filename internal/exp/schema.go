package exp

import (
	"fmt"

	"numamig/internal/report"
)

// Column is one table/CSV column of the grid report: its header name
// and the cell renderer. The table and CSV encodings are positional, so
// every consumer that joins on columns (artifact raw.csv files,
// spreadsheet imports) depends on one stable registration order — this
// schema is that single point of registration. Add new columns here,
// before the trailing "err" column, and nowhere else.
//
// Metric marks a numeric measurement column: its rendered cell always
// parses as a float64, and downstream statistical consumers (the
// internal/artifact campaign runner) aggregate exactly the columns so
// marked. Axis columns (id, patched, mode, workload, pages, nodes,
// seed) and the trailing err column are not metrics.
type Column struct {
	Name   string
	Cell   func(r *Result) string
	Metric bool
}

func str(v interface{}) string { return fmt.Sprintf("%v", v) }

func flt(v float64) string { return report.FormatFloat(v) }

// Columns returns the grid report schema, in output order.
func Columns() []Column {
	return []Column{
		{"id", func(r *Result) string { return r.ID }, false},
		{"patched", func(r *Result) string { return str(r.Patched) }, false},
		{"mode", func(r *Result) string { return r.Mode }, false},
		{"workload", func(r *Result) string { return r.Workload }, false},
		{"pages", func(r *Result) string { return str(r.Pages) }, false},
		{"nodes", func(r *Result) string { return str(r.Nodes) }, false},
		{"seed", func(r *Result) string { return str(r.Seed) }, false},
		{"sim_seconds", func(r *Result) string { return fmt.Sprintf("%.6f", r.SimSeconds) }, true},
		{"mbps", func(r *Result) string { return flt(r.MBps) }, true},
		{"pages_moved", func(r *Result) string { return str(r.PagesMoved) }, true},
		{"migrated_mb", func(r *Result) string { return flt(r.MigratedMB) }, true},
		{"faults", func(r *Result) string { return str(r.Faults) }, true},
		{"syscalls", func(r *Result) string { return str(r.Syscalls) }, true},
		{"tlb_shootdowns", func(r *Result) string { return str(r.TLBShootdowns) }, true},
		{"remote_mb", func(r *Result) string { return flt(r.RemoteMB) }, true},
		{"local_mb", func(r *Result) string { return flt(r.LocalMB) }, true},
		{"numa_hints", func(r *Result) string { return str(r.NumaHints) }, true},
		{"pages_demoted", func(r *Result) string { return str(r.Demoted) }, true},
		{"hot_local", func(r *Result) string { return fmt.Sprintf("%.3f", r.HotLocal) }, true},
		{"promote_demote_flips", func(r *Result) string { return str(r.Flips) }, true},
		{"slow_tier_resident", func(r *Result) string { return str(r.SlowResident) }, true},
		{"promote_rate_limited", func(r *Result) string { return str(r.RateLimited) }, true},
		{"fault_rate_hz", func(r *Result) string { return flt(r.FaultRateHz) }, true},
		{"migrate_bw_mbps_peak", func(r *Result) string { return flt(r.MigrateBWPeak) }, true},
		{"p99_slow_residency_window", func(r *Result) string { return flt(r.P99SlowResident) }, true},
		{"p50_access_lat_ls", func(r *Result) string { return flt(r.P50AccessLatLS) }, true},
		{"p99_access_lat_ls", func(r *Result) string { return flt(r.P99AccessLatLS) }, true},
		{"p50_access_lat_batch", func(r *Result) string { return flt(r.P50AccessLatBatch) }, true},
		{"p99_access_lat_batch", func(r *Result) string { return flt(r.P99AccessLatBatch) }, true},
		{"steady_migrate_bw_mbps", func(r *Result) string { return flt(r.SteadyMigrateBW) }, true},
		{"cap_violations", func(r *Result) string { return str(r.CapViolations) }, true},
		{"err", func(r *Result) string { return r.Err }, false},
	}
}

// ColumnNames returns the schema's header names in output order.
func ColumnNames() []string {
	cols := Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// MetricColumns returns the names of the numeric measurement columns,
// in schema order.
func MetricColumns() []string {
	var names []string
	for _, c := range Columns() {
		if c.Metric {
			names = append(names, c.Name)
		}
	}
	return names
}
