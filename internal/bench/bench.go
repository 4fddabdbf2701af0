// Package bench regenerates every table and figure of the paper's
// evaluation section (§4) on the simulated platform. Each experiment
// returns the same rows/series the paper reports; a campaign's
// experiments (internal/artifact) drive it.
package bench

import (
	"fmt"
	"io"
	"sort"

	"numamig/internal/kern"
	"numamig/internal/report"
	"numamig/internal/sim"
	"numamig/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Quick trims sweeps to sizes that run in seconds; full mode uses
	// the paper's exact parameter ranges.
	Quick bool
}

// pagesFig4 returns the Figure 4 x axis (number of 4 KiB pages).
func (o Options) pagesFig4() []int {
	if o.Quick {
		return []int{1, 16, 256, 1024, 4096}
	}
	return []int{1, 4, 16, 64, 256, 1024, 4096, 16384}
}

// pagesFig5 returns the Figure 5/6 x axis.
func (o Options) pagesFig5() []int {
	if o.Quick {
		return []int{4, 64, 1024}
	}
	return []int{4, 16, 64, 256, 1024, 4096}
}

// pagesFig7 returns the Figure 7 x axis.
func (o Options) pagesFig7() []int {
	if o.Quick {
		return []int{64, 1024, 16384}
	}
	return []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
}

// Figure4 regenerates "Migration and memory copy throughput comparison
// between NUMA nodes #0 and #1" (MB/s vs pages).
func Figure4(o Options) (*report.Figure, error) {
	fig := report.NewFigure("Figure 4: migration and memory copy throughput (node 0 -> node 1)",
		"pages", "MB/s")
	methods := []workload.MigMethod{
		workload.Memcpy, workload.MigratePages,
		workload.MovePagesPatched, workload.MovePagesUnpatched,
	}
	for _, m := range methods {
		s := fig.NewSeries(m.String())
		for _, p := range o.pagesFig4() {
			v, err := workload.SyncMigration(p, m)
			if err != nil {
				return nil, fmt.Errorf("fig4 %v/%d: %w", m, p, err)
			}
			s.Add(float64(p), v)
		}
	}
	return fig, nil
}

// Figure5 regenerates "Next-touch performance comparison" (MB/s vs
// pages).
func Figure5(o Options) (*report.Figure, error) {
	fig := report.NewFigure("Figure 5: Next-touch migration throughput (node 0 -> node 1)",
		"pages", "MB/s")
	variants := []workload.NTVariant{
		workload.UserNTUnpatched, workload.UserNTPatched, workload.KernelNT,
	}
	for _, v := range variants {
		s := fig.NewSeries(v.String())
		for _, p := range o.pagesFig5() {
			mbps, _, err := workload.NextTouch(p, v)
			if err != nil {
				return nil, fmt.Errorf("fig5 %v/%d: %w", v, p, err)
			}
			s.Add(float64(p), mbps)
		}
	}
	return fig, nil
}

// breakdown turns an account into ordered (category, percent) rows.
func breakdown(a *sim.Acct, cats []string) []float64 {
	out := make([]float64, len(cats))
	// Percentages over the listed categories only, so rounding noise in
	// unlisted buckets cannot distort the figure.
	var tot sim.Time
	for _, c := range cats {
		tot += a.Get(c)
	}
	if tot == 0 {
		return out
	}
	for i, c := range cats {
		out[i] = 100 * float64(a.Get(c)) / float64(tot)
	}
	return out
}

// Figure6a regenerates the user-space next-touch cost breakdown
// (percent per category vs pages).
func Figure6a(o Options) (*report.Table, error) {
	cats := []string{
		kern.CatMovePagesCopy, kern.CatMovePagesCtl,
		kern.CatMprotectRest, kern.CatFaultSignal, kern.CatMprotectMark,
	}
	tbl := report.NewTable("Figure 6a: user-space Next-touch cost breakdown (%)",
		append([]string{"pages"}, cats...)...)
	for _, p := range o.pagesFig5() {
		_, acct, err := workload.NextTouch(p, workload.UserNTPatched)
		if err != nil {
			return nil, err
		}
		pct := breakdown(acct, cats)
		row := []interface{}{p}
		for _, v := range pct {
			row = append(row, v)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

// Figure6b regenerates the kernel next-touch cost breakdown.
func Figure6b(o Options) (*report.Table, error) {
	cats := []string{kern.CatNTCopy, kern.CatNTCtl, kern.CatMadvise}
	tbl := report.NewTable("Figure 6b: kernel Next-touch cost breakdown (%)",
		append([]string{"pages"}, cats...)...)
	for _, p := range o.pagesFig5() {
		_, acct, err := workload.NextTouch(p, workload.KernelNT)
		if err != nil {
			return nil, err
		}
		pct := breakdown(acct, cats)
		row := []interface{}{p}
		for _, v := range pct {
			row = append(row, v)
		}
		tbl.Add(row...)
	}
	return tbl, nil
}

// Figure7 regenerates "Throughput of a parallel Lazy migration (kernel
// Next-touch) and a synchronous migration (move_pages) using up to 4
// threads on the same NUMA node".
func Figure7(o Options) (*report.Figure, error) {
	fig := report.NewFigure("Figure 7: threaded migration aggregate throughput (node 0 -> node 1)",
		"pages", "MB/s")
	for _, lazy := range []bool{false, true} {
		name := "Sync"
		if lazy {
			name = "Lazy"
		}
		for threads := 1; threads <= 4; threads++ {
			s := fig.NewSeries(fmt.Sprintf("%s - %d Thread(s)", name, threads))
			for _, p := range o.pagesFig7() {
				v, err := workload.ThreadedMigration(p, threads, lazy)
				if err != nil {
					return nil, err
				}
				s.Add(float64(p), v)
			}
		}
	}
	return fig, nil
}

// Table1Row is one LU configuration of Table 1.
type Table1Row struct {
	N, B int
}

// table1Rows returns the Table 1 configurations.
func (o Options) table1Rows() []Table1Row {
	if o.Quick {
		return []Table1Row{
			{2048, 64}, {2048, 128}, {2048, 256},
			{4096, 128}, {4096, 256}, {4096, 512},
			{8192, 512},
		}
	}
	return []Table1Row{
		{4096, 64}, {4096, 128}, {4096, 256},
		{8192, 128}, {8192, 256}, {8192, 512},
		{16384, 256}, {16384, 512}, {16384, 1024},
		{32768, 256}, {32768, 512},
	}
}

// Table1 regenerates "Execution time of the LU matrix factorization with
// 16 OpenMP threads" (static vs next-touch, improvement).
func Table1(o Options) (*report.Table, error) {
	tbl := report.NewTable("Table 1: LU factorization, 16 OpenMP threads",
		"Matrix", "Block", "Static", "Next-touch", "Improvement")
	for _, row := range o.table1Rows() {
		static, err := workload.RunLU(workload.LUConfig{N: row.N, B: row.B, Policy: workload.LUStatic})
		if err != nil {
			return nil, err
		}
		nt, err := workload.RunLU(workload.LUConfig{N: row.N, B: row.B, Policy: workload.LUNextTouch})
		if err != nil {
			return nil, err
		}
		imp := 100 * (static.Duration.Seconds()/nt.Duration.Seconds() - 1)
		tbl.Add(
			fmt.Sprintf("%dk x %dk", row.N/1024, row.N/1024),
			fmt.Sprintf("%d x %d", row.B, row.B),
			fmt.Sprintf("%.2f s", static.Duration.Seconds()),
			fmt.Sprintf("%.2f s", nt.Duration.Seconds()),
			fmt.Sprintf("%+.1f %%", imp),
		)
	}
	return tbl, nil
}

// fig8Sizes returns the Figure 8 matrix sizes.
func (o Options) fig8Sizes() []int {
	if o.Quick {
		return []int{128, 256, 512, 1024}
	}
	return []int{128, 256, 512, 1024, 2048}
}

// Figure8 regenerates "Execution time of 16 concurrent BLAS3 matrix
// multiplications within 16 independent threads".
func Figure8(o Options) (*report.Figure, error) {
	fig := report.NewFigure("Figure 8: 16 concurrent BLAS3 multiplications",
		"N", "seconds")
	policies := []workload.BLAS3Policy{
		workload.B3Static, workload.B3KernelNT, workload.B3UserNT,
	}
	for _, pol := range policies {
		s := fig.NewSeries(pol.String())
		for _, n := range o.fig8Sizes() {
			d, err := workload.RunBLAS3(workload.BLAS3Config{N: n, Policy: pol})
			if err != nil {
				return nil, err
			}
			s.Add(float64(n), d.Seconds())
		}
	}
	return fig, nil
}

// BLAS1 regenerates the §4.5 observation that BLAS1 (vector) operations
// never benefit from migration.
func BLAS1(o Options) (*report.Table, error) {
	sizes := []int{1 << 18, 1 << 20, 1 << 22}
	if o.Quick {
		sizes = []int{1 << 18, 1 << 20}
	}
	tbl := report.NewTable("Section 4.5: BLAS1 (DAXPY) with and without Next-touch",
		"Vector floats", "Static (interleaved)", "Next-touch", "Improvement")
	for _, n := range sizes {
		st, err := workload.RunBLAS1(workload.BLAS1Config{N: n})
		if err != nil {
			return nil, err
		}
		nt, err := workload.RunBLAS1(workload.BLAS1Config{N: n, NextTouch: true})
		if err != nil {
			return nil, err
		}
		imp := 100 * (st.Seconds()/nt.Seconds() - 1)
		tbl.Add(n,
			fmt.Sprintf("%.2f ms", st.Millis()),
			fmt.Sprintf("%.2f ms", nt.Millis()),
			fmt.Sprintf("%+.1f %%", imp),
		)
	}
	return tbl, nil
}

// ExtHuge runs the huge-page migration ablation (paper §6 future work).
func ExtHuge(o Options) (*report.Table, error) {
	sizes := []int{8, 32, 128}
	if o.Quick {
		sizes = []int{8, 32}
	}
	tbl := report.NewTable("Extension: 4 KiB vs 2 MiB huge-page migration (node 0 -> 1)",
		"MB", "move_pages (4k)", "huge (2M)", "Speedup")
	for _, mb := range sizes {
		small, huge, err := workload.HugePageMigration(mb)
		if err != nil {
			return nil, err
		}
		tbl.Add(mb,
			fmt.Sprintf("%.0f MB/s", small),
			fmt.Sprintf("%.0f MB/s", huge),
			fmt.Sprintf("%.2fx", huge/small),
		)
	}
	return tbl, nil
}

// ExtReplica runs the read-only replication ablation (paper §6 future
// work): 16 threads sweeping one hot buffer on node 0.
func ExtReplica(o Options) (*report.Table, error) {
	sweeps := 8
	if o.Quick {
		sweeps = 4
	}
	tbl := report.NewTable("Extension: read-only replication of a hot shared buffer",
		"MB", "Sweeps", "Static (node 0)", "Replicated", "Speedup")
	for _, mb := range []int{4, 16} {
		st, rp, err := workload.ReplicationStudy(mb, sweeps)
		if err != nil {
			return nil, err
		}
		tbl.Add(mb, sweeps,
			fmt.Sprintf("%.2f ms", st.Millis()),
			fmt.Sprintf("%.2f ms", rp.Millis()),
			fmt.Sprintf("%.2fx", st.Seconds()/rp.Seconds()),
		)
	}
	return tbl, nil
}

// Policies runs the placement-policy study: a 16-thread STREAM triad
// under four placements, swept repeatedly so one-time migration costs
// amortize.
func Policies(o Options) (*report.Table, error) {
	mb, sweeps := 8, 8
	if o.Quick {
		mb, sweeps = 4, 6
	}
	tbl := report.NewTable(
		fmt.Sprintf("Placement policies: 16-thread STREAM triad, %d MB/thread/vector, %d sweeps", mb, sweeps),
		"Placement", "Time", "vs first-touch")
	base, err := workload.PolicyStudy(mb, sweeps, workload.PolFirstTouchLocal)
	if err != nil {
		return nil, err
	}
	for _, pol := range []workload.PolicyKind{
		workload.PolFirstTouchLocal, workload.PolInterleaved,
		workload.PolNode0, workload.PolNextTouchFix,
	} {
		d, err := workload.PolicyStudy(mb, sweeps, pol)
		if err != nil {
			return nil, err
		}
		tbl.Add(pol.String(),
			fmt.Sprintf("%.2f ms", d.Millis()),
			fmt.Sprintf("%.2fx", d.Seconds()/base.Seconds()),
		)
	}
	return tbl, nil
}

// Experiments lists the runnable experiment ids.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// generator renders one experiment's figure or table to w.
type generator func(Options, io.Writer) error

// gen adapts a figure or table constructor to a generator.
func gen[T interface{ Write(io.Writer) }](build func(Options) (T, error)) generator {
	return func(o Options, w io.Writer) error {
		r, err := build(o)
		if err != nil {
			return err
		}
		r.Write(w)
		return nil
	}
}

// registry maps each experiment id to its generator.
var registry = map[string]generator{
	"fig4": gen(Figure4), "fig5": gen(Figure5), "fig6a": gen(Figure6a), "fig6b": gen(Figure6b),
	"fig7": gen(Figure7), "table1": gen(Table1), "fig8": gen(Figure8), "blas1": gen(BLAS1),
	"exthuge": gen(ExtHuge), "extreplica": gen(ExtReplica), "policies": gen(Policies),
}

// Run executes one experiment by id, writing its table/figure to w.
func Run(name string, o Options, w io.Writer) error {
	r, ok := registry[name]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
	}
	return r(o, w)
}
