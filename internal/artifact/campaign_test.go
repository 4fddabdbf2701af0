package artifact

import (
	"bytes"
	"strings"
	"testing"

	"numamig/internal/bench"
)

// Repeat-determinism property tests: the artifact reproducibility
// contract. The simulator measures virtual time only, so a campaign's
// rendered artifacts must be byte-identical across runs and across
// worker counts; fixed-seed repeats must collapse to zero spread.

func detConfig(policy string, repeats int) Config {
	return Config{
		Schema:     ConfigSchema,
		Name:       "det",
		Families:   []string{"migration"},
		Quick:      true,
		Repeats:    repeats,
		BaseSeed:   3,
		SeedPolicy: policy,
		Tolerance:  0.05,
		Speedups:   []SpeedupSpec{{Name: "pv", Metric: "mbps", Numer: "patched", Denom: "unpatched"}},
	}
}

func TestCampaignByteIdenticalAcrossRunsAndParallelism(t *testing.T) {
	cfg := detConfig(SeedPerRepeat, 2)
	var outs []*Outcome
	for _, par := range []int{1, 8, 1} {
		var raw bytes.Buffer
		o, err := RunCampaign(cfg, RunOptions{Parallel: par, RawOut: &raw})
		if err != nil {
			t.Fatal(err)
		}
		// The streamed raw CSV must equal the rendered one.
		if !bytes.Equal(raw.Bytes(), o.RawCSV) {
			t.Fatalf("parallel %d: streamed raw CSV differs from rendered", par)
		}
		outs = append(outs, o)
	}
	for i, o := range outs[1:] {
		if !bytes.Equal(o.RawCSV, outs[0].RawCSV) {
			t.Errorf("run %d: raw.csv differs", i+1)
		}
		if !bytes.Equal(o.Summary, outs[0].Summary) {
			t.Errorf("run %d: summary.json differs", i+1)
		}
		if !bytes.Equal(o.Tables, outs[0].Tables) {
			t.Errorf("run %d: tables.md differs", i+1)
		}
	}
}

func TestFixedSeedRepeatsAreReplicas(t *testing.T) {
	o, err := RunCampaign(detConfig(SeedFixed, 3), RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every cell's every metric must have exactly zero spread.
	for _, c := range o.Analysis.Cells {
		for _, ms := range c.Metrics {
			if ms.N != 3 || ms.Std != 0 || ms.Min != ms.Max || ms.Mean != ms.Min {
				t.Fatalf("cell %s metric %s = %+v, want 3 identical replicas", c.ID, ms.Metric, ms)
			}
		}
	}
	if o.Analysis.MaxRelStd != 0 {
		t.Errorf("MaxRelStd = %v, want exactly 0", o.Analysis.MaxRelStd)
	}
	// The repeats' raw cells must be byte-identical, row for row.
	per := len(o.Rows) / 3
	for i := 0; i < per; i++ {
		for r := 1; r < 3; r++ {
			a, b := o.Rows[i], o.Rows[r*per+i]
			if strings.Join(a.Cells, ",") != strings.Join(b.Cells, ",") {
				t.Fatalf("repeat %d row %d differs from repeat 0", r, i)
			}
			if a.Seed != b.Seed {
				t.Fatalf("fixed policy derived different seeds %d vs %d", a.Seed, b.Seed)
			}
		}
	}
}

func TestPerRepeatSeedsRecordedDistinctly(t *testing.T) {
	o, err := RunCampaign(detConfig(SeedPerRepeat, 2), RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for _, r := range o.Rows {
		seeds[r.Seed] = true
	}
	if len(seeds) != 2 {
		t.Fatalf("2 per-repeat repeats recorded %d distinct seeds", len(seeds))
	}
	// The grouped means must hold inside the configured tolerance (the
	// simulator's metrics are seed-stable; the bound is the contract).
	if o.Analysis.MaxRelStd > 0.05 {
		t.Errorf("MaxRelStd = %v beyond the 0.05 tolerance", o.Analysis.MaxRelStd)
	}
	// The seed column is part of the raw record, so the raw CSV of a
	// per-repeat campaign differs from a fixed-seed one even when the
	// measured metrics agree.
	fixed, err := RunCampaign(detConfig(SeedFixed, 2), RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(o.RawCSV, fixed.RawCSV) {
		t.Error("per-repeat and fixed campaigns produced identical raw CSV")
	}
}

func TestRawCSVRoundTrip(t *testing.T) {
	cfg := detConfig(SeedPerRepeat, 2)
	o, err := RunCampaign(cfg, RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ReadRawCSV(bytes.NewReader(o.RawCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(o.Rows) {
		t.Fatalf("round trip: %d rows, want %d", len(rows), len(o.Rows))
	}
	an, err := Analyze(&cfg, rows)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RenderSummary(an)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum, o.Summary) {
		t.Error("summary recomputed from written raw CSV differs from the original")
	}
	tbl, err := RenderTables(&cfg, an)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tbl, o.Tables) {
		t.Error("tables recomputed from written raw CSV differ from the original")
	}
}

func TestReadRawCSVErrors(t *testing.T) {
	drift := append([]string{}, rawHeader()...)
	drift[len(drift)-1] = "renamed_column"
	cases := []struct {
		name, data, frag string
	}{
		{"empty", "", "empty"},
		{"schema drift", strings.Join(drift, ",") + "\n", "disagree"},
		{"short record", "repeat,seed\n", "reading raw csv"},
	}
	for _, c := range cases {
		if _, err := ReadRawCSV(strings.NewReader(c.data)); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.frag)
		}
	}
	// Bad repeat/seed cells after a valid header.
	hdr := strings.Join(rawHeader(), ",")
	pad := strings.Repeat(",", len(rawHeader())-3)
	if _, err := ReadRawCSV(strings.NewReader(hdr + "\nx,1,id" + pad + "\n")); err == nil || !strings.Contains(err.Error(), "repeat") {
		t.Errorf("bad repeat cell: err = %v", err)
	}
	if _, err := ReadRawCSV(strings.NewReader(hdr + "\n0,x,id" + pad + "\n")); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("bad seed cell: err = %v", err)
	}
}

func TestRunCampaignRejectsInvalidConfig(t *testing.T) {
	cfg := detConfig(SeedFixed, 1)
	cfg.Families = []string{"warp-drive"}
	if _, err := RunCampaign(cfg, RunOptions{}); err == nil {
		t.Error("invalid config ran")
	}
}

// A campaign naming experiments but no families runs no grid (an empty
// family list would expand to every family) and renders figures alone.
func TestExperimentsOnlyCampaignRunsNoGrid(t *testing.T) {
	cfg := Config{Schema: ConfigSchema, Name: "figs", Quick: true, Experiments: []string{"fig6b", "fig4"}}
	var raw, log bytes.Buffer
	o, err := RunCampaign(cfg, RunOptions{RawOut: &raw, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Rows) != 0 || o.Analysis != nil || o.RawCSV != nil || o.Summary != nil || o.Tables != nil || raw.Len() != 0 {
		t.Fatalf("experiments-only campaign ran a grid: %d rows, %d raw bytes", len(o.Rows), raw.Len())
	}
	var want bytes.Buffer
	for _, id := range cfg.Experiments {
		want.WriteString("# experiment: " + id + "\n")
		if err := bench.Run(id, bench.Options{Quick: true}, &want); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
	}
	if !bytes.Equal(o.Figures, want.Bytes()) {
		t.Errorf("figures.txt:\n%s\nwant:\n%s", o.Figures, want.Bytes())
	}
	if strings.Contains(log.String(), "repeat") {
		t.Errorf("log reports grid repeats: %q", log.String())
	}
}
