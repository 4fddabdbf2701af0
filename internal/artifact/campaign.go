package artifact

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"numamig/internal/bench"
	"numamig/internal/exp"
)

// Artifact file names inside a campaign's output directory.
const (
	RawCSVName  = "raw.csv"
	SummaryName = "summary.json"
	TablesName  = "tables.md"
	FiguresName = "figures.txt"
)

// RunOptions tunes campaign execution without affecting its output
// bytes.
type RunOptions struct {
	// Parallel is the grid worker count (exp.Runner.Parallel); the
	// output is byte-identical at any setting.
	Parallel int
	// RawOut, when set, receives the raw CSV incrementally: the header
	// first, then each repeat's rows as the repeat completes, so a long
	// campaign's raw data survives an interruption.
	RawOut io.Writer
	// Log, when set, receives human progress lines (wall-clock timing
	// included — never part of the artifact output).
	Log io.Writer
}

// Outcome is a completed campaign: the raw rows, the grouped analysis,
// and every rendered artifact as bytes, ready for WriteDir or for
// byte-level comparison in tests. Rows and Analysis stay empty for an
// experiments-only campaign.
type Outcome struct {
	Config   Config
	Rows     []Row
	Analysis *Analysis

	RawCSV  []byte // present when the config's outputs include csv
	Summary []byte // json
	Tables  []byte // md
	Figures []byte // figures
}

// RunCampaign executes a validated campaign config: the scenario grid
// of its families, if it names any, and then its experiments. Any
// scenario error, completeness violation or tolerance breach fails the
// whole campaign.
func RunCampaign(cfg Config, ro RunOptions) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := &Outcome{Config: cfg}
	// exp.Scenarios expands an empty family list to every family, so an
	// experiments-only campaign skips the grid instead of running it.
	if len(cfg.Families) > 0 {
		if err := out.runGrid(ro); err != nil {
			return nil, err
		}
	}
	if cfg.Wants(OutFigures) {
		var buf bytes.Buffer
		for _, id := range cfg.Experiments {
			start := time.Now()
			fmt.Fprintf(&buf, "# experiment: %s\n", id)
			if err := bench.Run(id, bench.Options{Quick: cfg.Quick}, &buf); err != nil {
				return nil, fmt.Errorf("artifact: experiment %s: %w", id, err)
			}
			buf.WriteByte('\n')
			ro.logf("artifact: experiment %s in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
		out.Figures = buf.Bytes()
	}
	return out, nil
}

// runGrid expands the campaign's families once per repeat (each repeat
// under its derived seed), runs every scenario through the parallel
// grid runner, runs the grouped analysis over the raw rows, and renders
// the configured grid artifacts.
func (out *Outcome) runGrid(ro RunOptions) error {
	cfg := &out.Config
	var stream *csv.Writer
	if ro.RawOut != nil {
		stream = csv.NewWriter(ro.RawOut)
		if err := stream.Write(rawHeader()); err != nil {
			return fmt.Errorf("artifact: streaming raw header: %w", err)
		}
	}
	for r := 0; r < cfg.Repeats; r++ {
		seed := cfg.SeedFor(r)
		opts := exp.Options{
			Quick:        cfg.Quick,
			Seed:         seed,
			NodeList:     cfg.Nodes,
			CoresPerNode: cfg.CoresPerNode,
		}
		scs, err := exp.Scenarios(cfg.Families, opts)
		if err != nil {
			return fmt.Errorf("artifact: expanding repeat %d: %w", r, err)
		}
		if len(scs) == 0 {
			return fmt.Errorf("artifact: repeat %d expands to no scenarios (nodes list too narrow for the families?)", r)
		}
		start := time.Now()
		results := exp.Runner{Parallel: ro.Parallel}.Run(scs)
		for i := range results {
			if results[i].Err != "" {
				return fmt.Errorf("artifact: repeat %d scenario %q failed: %s",
					r, results[i].ID, results[i].Err)
			}
			row := rowOf(r, seed, &results[i])
			out.Rows = append(out.Rows, row)
			if stream != nil {
				if err := stream.Write(row.record()); err != nil {
					return fmt.Errorf("artifact: streaming raw row: %w", err)
				}
			}
		}
		if stream != nil {
			stream.Flush()
			if err := stream.Error(); err != nil {
				return fmt.Errorf("artifact: streaming repeat %d: %w", r, err)
			}
		}
		ro.logf("artifact: repeat %d/%d: %d scenarios (seed %d) in %v\n",
			r+1, cfg.Repeats, len(scs), seed, time.Since(start).Round(time.Millisecond))
	}

	an, err := Analyze(cfg, out.Rows)
	if err != nil {
		return err
	}
	out.Analysis = an
	if cfg.Wants(OutCSV) {
		out.RawCSV = renderRawCSV(out.Rows)
	}
	if cfg.Wants(OutJSON) {
		if out.Summary, err = RenderSummary(an); err != nil {
			return err
		}
	}
	if cfg.Wants(OutMD) {
		if out.Tables, err = RenderTables(cfg, an); err != nil {
			return err
		}
	}
	return nil
}

// logf writes a progress line to Log, if set.
func (ro RunOptions) logf(format string, args ...interface{}) {
	if ro.Log != nil {
		fmt.Fprintf(ro.Log, format, args...)
	}
}

// WriteDir writes the rendered artifacts into dir (created as needed):
// raw.csv, summary.json, tables.md and figures.txt, as selected by the
// config's output set.
func (o *Outcome) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	files := []struct {
		name string
		data []byte
	}{
		{RawCSVName, o.RawCSV},
		{SummaryName, o.Summary},
		{TablesName, o.Tables},
		{FiguresName, o.Figures},
	}
	for _, f := range files {
		if f.data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
	}
	return nil
}

// rawHeader is the raw CSV header: the repeat/seed provenance columns
// followed by the grid schema, exactly exp.Columns() order.
func rawHeader() []string {
	return append([]string{"repeat", "seed"}, exp.ColumnNames()...)
}

// rowOf renders one result into a raw row through the schema's cell
// renderers — the same strings the grid CSV would carry.
func rowOf(repeat int, seed int64, r *exp.Result) Row {
	cols := exp.Columns()
	cells := make([]string, len(cols))
	for i, c := range cols {
		cells[i] = c.Cell(r)
	}
	return Row{Repeat: repeat, Seed: seed, Cells: cells}
}

// record is the row's CSV record.
func (r *Row) record() []string {
	return append([]string{strconv.Itoa(r.Repeat), strconv.FormatInt(r.Seed, 10)}, r.Cells...)
}

// renderRawCSV renders the full raw CSV (header + rows) as bytes.
func renderRawCSV(rows []Row) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(rawHeader())
	for i := range rows {
		w.Write(rows[i].record())
	}
	w.Flush()
	return buf.Bytes()
}

// ReadRawCSV parses a raw artifact CSV back into rows, verifying the
// header against the current schema.
func ReadRawCSV(rd io.Reader) ([]Row, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = len(rawHeader())
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("artifact: reading raw csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("artifact: raw csv is empty")
	}
	want := rawHeader()
	for i, h := range recs[0] {
		if h != want[i] {
			return nil, fmt.Errorf("artifact: raw csv column %d is %q, schema says %q — artifact and exp.Columns() disagree",
				i, h, want[i])
		}
	}
	var rows []Row
	for _, rec := range recs[1:] {
		rep, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("artifact: bad repeat cell %q", rec[0])
		}
		seed, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("artifact: bad seed cell %q", rec[1])
		}
		rows = append(rows, Row{Repeat: rep, Seed: seed, Cells: rec[2:]})
	}
	return rows, nil
}
