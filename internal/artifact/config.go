// Package artifact is the paper-artifact mode: a declarative
// experiment-campaign runner layered on internal/exp and
// internal/bench. A campaign is specified as data (a JSON Config):
// which scenario families to run, at which machine sizes, how many
// repeats, and how per-repeat seeds derive from the base seed. The
// runner executes the grid once per repeat, streams the per-repeat raw
// rows to CSV (schema = internal/exp.Columns(), the single grid-report
// column registry), then runs a grouped analysis pass — per-cell
// mean/std/min/max over every metric column plus declarative speedup
// ratios (e.g. patched vs unpatched) — and renders Fig. 7-style
// scaling tables as Markdown and machine-readable JSON. A campaign also
// renders the internal/bench experiments it names (the paper's figures
// and tables) into figures.txt; one that names only experiments runs no
// grid.
//
// Because the simulator is deterministic in virtual time, rerunning a
// campaign with the same config produces byte-identical outputs at any
// parallelism, so the committed artifacts are checked by regenerating
// them (cmd/numabench's TestCommittedArtifactsRegenerate): a stale or
// hand-edited artifact fails the tests. The analysis reads only the
// rendered raw rows, so re-analysing a written raw CSV reproduces the
// summary and tables byte for byte.
package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"

	"numamig/internal/bench"
	"numamig/internal/exp"
	"numamig/internal/topology"
)

// ConfigSchema is the campaign-config schema identifier a Config must
// declare; bump it when the config shape changes incompatibly.
const ConfigSchema = "numamig-artifact/v1"

// SummarySchema identifies the rendered summary.json shape.
const SummarySchema = "numamig-artifact-summary/v1"

// SeedStride is the per-repeat seed spacing of the "per-repeat" seed
// policy: repeat r runs with BaseSeed + r*SeedStride. A large odd
// stride keeps repeat seeds of different campaigns from colliding when
// their base seeds are small consecutive integers.
const SeedStride = 1_000_003

// MaxRepeats bounds a campaign's repeat count; it exists so a typo in
// a config cannot queue an unbounded amount of work.
const MaxRepeats = 1024

// Seed policies.
const (
	// SeedFixed runs every repeat with the base seed: repeats are
	// byte-identical replicas, so per-cell std must be exactly 0.
	SeedFixed = "fixed"
	// SeedPerRepeat derives a distinct seed per repeat
	// (BaseSeed + r*SeedStride): repeats sample the simulator's seeded
	// randomness, so grouped means carry real spread.
	SeedPerRepeat = "per-repeat"
)

// Output artifact selectors for Config.Outputs.
const (
	OutCSV     = "csv"     // raw per-repeat rows (raw.csv)
	OutJSON    = "json"    // grouped analysis (summary.json)
	OutMD      = "md"      // Fig. 7-style scaling tables (tables.md)
	OutFigures = "figures" // classic bench figure/table text (figures.txt)
)

// Axis names a TableSpec can lay cells out by.
const (
	AxisPages   = "pages"   // the buffer-size axis (Result.Pages)
	AxisNodes   = "nodes"   // the machine-size axis (Result.Nodes)
	AxisVariant = "variant" // the scenario-ID tokens minus family/pages/nodes
	AxisFamily  = "family"  // the scenario family (first ID token)
)

// TableSpec declares one rendered scaling table: the metric shown, the
// axis enumerated down the rows, the axis spread across the columns,
// and optionally a third axis splitting the spec into one table per
// value (e.g. rows=pages, cols=variant, split=nodes reads as the
// paper's Figure 7 family of curves).
type TableSpec struct {
	Title  string `json:"title,omitempty"`
	Metric string `json:"metric"`
	Rows   string `json:"rows"`
	Cols   string `json:"cols"`
	Split  string `json:"split,omitempty"`
}

// SpeedupSpec declares one relative-speedup column: for every cell
// whose variant contains the Numer token, the ratio of its Metric mean
// to the cell with that token replaced by Denom (all other axes
// equal). Cells without a matching baseline are skipped — e.g. the
// migration family's lazy-kernel mode, which has no unpatched twin.
type SpeedupSpec struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	Numer  string `json:"numer"`
	Denom  string `json:"denom"`
}

// Config is a declarative experiment campaign. Families, machine
// sizes, repeat count and seed policy fully determine the raw row set;
// Tables and Speedups fully determine the rendered analysis, so two
// runs of one config are byte-identical. A campaign that names
// Experiments but no Families runs no grid: it only renders figures,
// and sets none of the grid settings.
type Config struct {
	Schema      string `json:"schema"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Families selects the internal/exp scenario families to run.
	Families []string `json:"families"`
	// Quick selects the families' trimmed sweeps (exp.Options.Quick).
	Quick bool `json:"quick,omitempty"`
	// Nodes overrides the machine-size sweep (exp.Options.NodeList).
	Nodes []int `json:"nodes,omitempty"`
	// CoresPerNode sets cores per node (0 = the Opteron host's 4).
	CoresPerNode int `json:"cores_per_node,omitempty"`

	// Repeats is how many times the whole grid runs (>= 1).
	Repeats int `json:"repeats"`
	// BaseSeed (>= 1) anchors the seed derivation.
	BaseSeed int64 `json:"base_seed"`
	// SeedPolicy is SeedFixed or SeedPerRepeat.
	SeedPolicy string `json:"seed_policy"`

	// Tolerance (0 disables) bounds the relative standard deviation
	// (std/|mean|) of every table metric across repeats; a cell beyond
	// it fails the campaign, guarding the published means against
	// seed-sensitive instability.
	Tolerance float64 `json:"tolerance,omitempty"`

	// Metrics restricts the analysis to a subset of the schema's metric
	// columns (empty = all of exp.MetricColumns()).
	Metrics []string `json:"metrics,omitempty"`
	// Tables declares the rendered scaling tables (empty = one default
	// mbps table: rows=pages, cols=variant, split=nodes).
	Tables []TableSpec `json:"tables,omitempty"`
	// Speedups declares the relative-speedup ratio columns.
	Speedups []SpeedupSpec `json:"speedups,omitempty"`

	// Experiments regenerates internal/bench experiments, the paper's
	// figures and tables (e.g. "fig7"), into figures.txt.
	Experiments []string `json:"experiments,omitempty"`

	// Outputs selects the written artifacts (empty = csv, json and md
	// when Families is non-empty, plus figures when Experiments is).
	Outputs []string `json:"outputs,omitempty"`
}

// nameRE constrains campaign and speedup names to safe file/column
// tokens.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// ParseConfig decodes and validates a campaign config. Unknown fields,
// unknown families/axes/columns, zero repeats and seed overflow all
// return errors; no input panics.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("artifact: parsing config: %w", err)
	}
	// A second document after the first is a malformed config, not
	// trailing noise to ignore.
	if dec.More() {
		return Config{}, fmt.Errorf("artifact: trailing data after config object")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate checks every declarative reference in the config against
// the registries it names: scenario families against internal/exp,
// metric columns against exp.Columns(), experiments against
// internal/bench, axes against the axis set.
func (c *Config) Validate() error {
	if c.Schema != ConfigSchema {
		return fmt.Errorf("artifact: config schema %q, want %q", c.Schema, ConfigSchema)
	}
	if !nameRE.MatchString(c.Name) {
		return fmt.Errorf("artifact: campaign name %q must match %s", c.Name, nameRE)
	}
	switch {
	case len(c.Families) > 0:
		if err := c.validateGrid(); err != nil {
			return err
		}
	case len(c.Experiments) == 0:
		return fmt.Errorf("artifact: config names no scenario families and no experiments")
	case len(c.Nodes) > 0 || c.CoresPerNode != 0 || c.Repeats != 0 || c.BaseSeed != 0 || c.SeedPolicy != "" ||
		c.Tolerance != 0 || len(c.Metrics) > 0 || len(c.Tables) > 0 || len(c.Speedups) > 0:
		return fmt.Errorf("artifact: nodes, cores_per_node, repeats, seeds, tolerance, metrics, tables and speedups need scenario families")
	}

	knownExp := map[string]bool{}
	for _, e := range bench.Experiments() {
		knownExp[e] = true
	}
	seenE := map[string]bool{}
	for _, e := range c.Experiments {
		if !knownExp[e] {
			return fmt.Errorf("artifact: unknown experiment %q (have %v)", e, bench.Experiments())
		}
		if seenE[e] {
			return fmt.Errorf("artifact: duplicate experiment %q", e)
		}
		seenE[e] = true
	}

	seenO := map[string]bool{}
	for _, o := range c.Outputs {
		switch o {
		case OutCSV, OutJSON, OutMD:
			if len(c.Families) == 0 {
				return fmt.Errorf("artifact: output %q requires at least one family", o)
			}
		case OutFigures:
			if len(c.Experiments) == 0 {
				return fmt.Errorf("artifact: output %q requires at least one experiment", OutFigures)
			}
		default:
			return fmt.Errorf("artifact: unknown output %q (want %s, %s, %s or %s)",
				o, OutCSV, OutJSON, OutMD, OutFigures)
		}
		if seenO[o] {
			return fmt.Errorf("artifact: duplicate output %q", o)
		}
		seenO[o] = true
	}
	return nil
}

// validateGrid checks the settings of the scenario grid a campaign
// runs: its families, machine shape, repeats, seeds, tolerance, metric
// columns, tables and speedups.
func (c *Config) validateGrid() error {
	known := map[string]bool{}
	for _, f := range exp.Families() {
		known[f] = true
	}
	seen := map[string]bool{}
	for _, f := range c.Families {
		if !known[f] {
			return fmt.Errorf("artifact: unknown family %q (have %v)", f, exp.Families())
		}
		if seen[f] {
			return fmt.Errorf("artifact: duplicate family %q", f)
		}
		seen[f] = true
	}
	for _, n := range c.Nodes {
		if n < 1 || n > topology.MaxNodes {
			return fmt.Errorf("artifact: node count %d outside 1..%d", n, topology.MaxNodes)
		}
	}
	if c.CoresPerNode < 0 || c.CoresPerNode > 256 {
		return fmt.Errorf("artifact: cores_per_node %d outside 0..256", c.CoresPerNode)
	}
	if c.Repeats < 1 || c.Repeats > MaxRepeats {
		return fmt.Errorf("artifact: repeats %d outside 1..%d", c.Repeats, MaxRepeats)
	}
	if c.BaseSeed < 1 {
		return fmt.Errorf("artifact: base_seed %d must be >= 1", c.BaseSeed)
	}
	switch c.SeedPolicy {
	case SeedFixed:
	case SeedPerRepeat:
		// The last repeat's seed must not overflow int64. Repeats is
		// already bounded, so the span product cannot itself overflow.
		span := int64(c.Repeats-1) * SeedStride
		if c.BaseSeed > math.MaxInt64-span {
			return fmt.Errorf("artifact: base_seed %d overflows at repeat %d (policy %s)",
				c.BaseSeed, c.Repeats-1, SeedPerRepeat)
		}
	default:
		return fmt.Errorf("artifact: unknown seed_policy %q (want %s or %s)",
			c.SeedPolicy, SeedFixed, SeedPerRepeat)
	}
	if c.Tolerance < 0 || c.Tolerance >= 1 {
		return fmt.Errorf("artifact: tolerance %v outside [0, 1)", c.Tolerance)
	}

	metric := map[string]bool{}
	for _, m := range exp.MetricColumns() {
		metric[m] = true
	}
	seenM := map[string]bool{}
	for _, m := range c.Metrics {
		if !metric[m] {
			return fmt.Errorf("artifact: unknown metric column %q (have %v)", m, exp.MetricColumns())
		}
		if seenM[m] {
			return fmt.Errorf("artifact: duplicate metric %q", m)
		}
		seenM[m] = true
	}
	// A restricted metric set must still cover what tables and
	// speedups reference.
	inScope := func(m string) bool {
		if len(c.Metrics) == 0 {
			return metric[m]
		}
		return seenM[m]
	}

	axis := map[string]bool{AxisPages: true, AxisNodes: true, AxisVariant: true, AxisFamily: true}
	for i, t := range c.Tables {
		if !metric[t.Metric] {
			return fmt.Errorf("artifact: table %d: unknown metric column %q", i, t.Metric)
		}
		if !inScope(t.Metric) {
			return fmt.Errorf("artifact: table %d: metric %q not in the configured metrics set", i, t.Metric)
		}
		if !axis[t.Rows] {
			return fmt.Errorf("artifact: table %d: unknown rows axis %q", i, t.Rows)
		}
		if !axis[t.Cols] {
			return fmt.Errorf("artifact: table %d: unknown cols axis %q", i, t.Cols)
		}
		if t.Rows == t.Cols {
			return fmt.Errorf("artifact: table %d: rows and cols are both %q", i, t.Rows)
		}
		if t.Split != "" {
			if !axis[t.Split] {
				return fmt.Errorf("artifact: table %d: unknown split axis %q", i, t.Split)
			}
			if t.Split == t.Rows || t.Split == t.Cols {
				return fmt.Errorf("artifact: table %d: split axis %q reuses rows/cols", i, t.Split)
			}
		}
	}

	seenS := map[string]bool{}
	for i, s := range c.Speedups {
		if !nameRE.MatchString(s.Name) {
			return fmt.Errorf("artifact: speedup %d: name %q must match %s", i, s.Name, nameRE)
		}
		if seenS[s.Name] {
			return fmt.Errorf("artifact: duplicate speedup name %q", s.Name)
		}
		seenS[s.Name] = true
		if !metric[s.Metric] {
			return fmt.Errorf("artifact: speedup %q: unknown metric column %q", s.Name, s.Metric)
		}
		if !inScope(s.Metric) {
			return fmt.Errorf("artifact: speedup %q: metric %q not in the configured metrics set", s.Name, s.Metric)
		}
		if s.Numer == "" || s.Denom == "" || s.Numer == s.Denom {
			return fmt.Errorf("artifact: speedup %q: numer/denom must be distinct non-empty tokens", s.Name)
		}
		if strings.Contains(s.Numer, "/") || strings.Contains(s.Denom, "/") {
			return fmt.Errorf("artifact: speedup %q: numer/denom are single ID tokens, no '/'", s.Name)
		}
	}

	return nil
}

// SeedFor returns repeat r's seed under the config's seed policy. The
// derivation is part of the artifact contract: each raw row records
// its seed, and Analyze checks the column against it.
func (c *Config) SeedFor(r int) int64 {
	if c.SeedPolicy == SeedFixed {
		return c.BaseSeed
	}
	return c.BaseSeed + int64(r)*SeedStride
}

// Wants reports whether the campaign writes output o. With no outputs
// configured it writes csv, json and md when it names families, and
// figures when it names experiments.
func (c *Config) Wants(o string) bool {
	if len(c.Outputs) == 0 {
		if o == OutFigures {
			return len(c.Experiments) > 0
		}
		return len(c.Families) > 0
	}
	return slices.Contains(c.Outputs, o)
}

// metrics returns the effective metric column set, in schema order.
func (c *Config) metrics() []string {
	if len(c.Metrics) == 0 {
		return exp.MetricColumns()
	}
	// Preserve schema order, not config order, so the summary layout
	// never depends on how the config happens to list them.
	want := map[string]bool{}
	for _, m := range c.Metrics {
		want[m] = true
	}
	var out []string
	for _, m := range exp.MetricColumns() {
		if want[m] {
			out = append(out, m)
		}
	}
	return out
}

// tables returns the effective table specs (the Figure 7 default when
// none is configured).
func (c *Config) tables() []TableSpec {
	if len(c.Tables) > 0 {
		return c.Tables
	}
	return []TableSpec{{
		Title:  "throughput vs pages",
		Metric: "mbps",
		Rows:   AxisPages,
		Cols:   AxisVariant,
		Split:  AxisNodes,
	}}
}
