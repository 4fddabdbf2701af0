package artifact

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// validConfig is the baseline every validation case perturbs.
func validConfig() Config {
	return Config{
		Schema:     ConfigSchema,
		Name:       "test-campaign",
		Families:   []string{"migration"},
		Quick:      true,
		Repeats:    2,
		BaseSeed:   1,
		SeedPolicy: SeedPerRepeat,
	}
}

func TestValidateAcceptsBaseline(t *testing.T) {
	cfg := validConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"wrong schema", func(c *Config) { c.Schema = "v0" }, "schema"},
		{"bad name", func(c *Config) { c.Name = "Bad Name!" }, "name"},
		{"no families", func(c *Config) { c.Families = nil }, "no scenario families"},
		{"unknown family", func(c *Config) { c.Families = []string{"warp-drive"} }, "unknown family"},
		{"duplicate family", func(c *Config) { c.Families = []string{"migration", "migration"} }, "duplicate family"},
		{"zero nodes", func(c *Config) { c.Nodes = []int{0} }, "node count"},
		{"negative cores", func(c *Config) { c.CoresPerNode = -1 }, "cores_per_node"},
		{"zero repeats", func(c *Config) { c.Repeats = 0 }, "repeats"},
		{"too many repeats", func(c *Config) { c.Repeats = MaxRepeats + 1 }, "repeats"},
		{"zero seed", func(c *Config) { c.BaseSeed = 0 }, "base_seed"},
		{"seed overflow", func(c *Config) { c.BaseSeed = math.MaxInt64 - SeedStride/2 }, "overflows"},
		{"unknown policy", func(c *Config) { c.SeedPolicy = "dice" }, "seed_policy"},
		{"tolerance too big", func(c *Config) { c.Tolerance = 1 }, "tolerance"},
		{"unknown metric", func(c *Config) { c.Metrics = []string{"vibes"} }, "unknown metric"},
		{"duplicate metric", func(c *Config) { c.Metrics = []string{"mbps", "mbps"} }, "duplicate metric"},
		{"non-metric column", func(c *Config) { c.Metrics = []string{"id"} }, "unknown metric"},
		{"table bad metric", func(c *Config) {
			c.Tables = []TableSpec{{Metric: "vibes", Rows: AxisPages, Cols: AxisNodes}}
		}, "unknown metric"},
		{"table metric out of scope", func(c *Config) {
			c.Metrics = []string{"faults"}
			c.Tables = []TableSpec{{Metric: "mbps", Rows: AxisPages, Cols: AxisNodes}}
		}, "not in the configured metrics"},
		{"table bad axis", func(c *Config) {
			c.Tables = []TableSpec{{Metric: "mbps", Rows: "moons", Cols: AxisNodes}}
		}, "rows axis"},
		{"table rows=cols", func(c *Config) {
			c.Tables = []TableSpec{{Metric: "mbps", Rows: AxisPages, Cols: AxisPages}}
		}, "rows and cols"},
		{"table split reuse", func(c *Config) {
			c.Tables = []TableSpec{{Metric: "mbps", Rows: AxisPages, Cols: AxisNodes, Split: AxisPages}}
		}, "split axis"},
		{"speedup bad name", func(c *Config) {
			c.Speedups = []SpeedupSpec{{Name: "Bad!", Metric: "mbps", Numer: "a", Denom: "b"}}
		}, "name"},
		{"speedup same tokens", func(c *Config) {
			c.Speedups = []SpeedupSpec{{Name: "s", Metric: "mbps", Numer: "a", Denom: "a"}}
		}, "distinct"},
		{"speedup slash token", func(c *Config) {
			c.Speedups = []SpeedupSpec{{Name: "s", Metric: "mbps", Numer: "a/b", Denom: "c"}}
		}, "single ID tokens"},
		{"duplicate speedup", func(c *Config) {
			c.Speedups = []SpeedupSpec{
				{Name: "s", Metric: "mbps", Numer: "a", Denom: "b"},
				{Name: "s", Metric: "mbps", Numer: "c", Denom: "d"},
			}
		}, "duplicate speedup"},
		{"unknown experiment", func(c *Config) { c.Experiments = []string{"fig99"} }, "unknown experiment"},
		{"unknown output", func(c *Config) { c.Outputs = []string{"pdf"} }, "unknown output"},
		{"figures without experiments", func(c *Config) { c.Outputs = []string{OutFigures} }, "requires at least one experiment"},
		{"duplicate output", func(c *Config) { c.Outputs = []string{OutCSV, OutCSV} }, "duplicate output"},
		{"grid settings without families", func(c *Config) {
			c.Families, c.Experiments = nil, []string{"fig4"}
		}, "need scenario families"},
		{"csv without families", func(c *Config) {
			c.Families, c.Repeats, c.BaseSeed, c.SeedPolicy = nil, 0, 0, ""
			c.Experiments, c.Outputs = []string{"fig4"}, []string{OutFigures, OutCSV}
		}, "requires at least one family"},
	}
	for _, c := range cases {
		cfg := validConfig()
		c.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.frag)
		}
	}
}

func TestParseConfigRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := ParseConfig([]byte(`{"schema":"` + ConfigSchema + `","name":"x","families":["migration"],"repeats":1,"base_seed":1,"seed_policy":"fixed","bogus_knob":3}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseConfig([]byte(`{"schema":"` + ConfigSchema + `","name":"x","families":["migration"],"repeats":1,"base_seed":1,"seed_policy":"fixed"} {"second":true}`)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing document: err = %v", err)
	}
	if _, err := ParseConfig([]byte(`not json`)); err == nil {
		t.Error("junk accepted")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := validConfig()
	cfg.Description = "round trip"
	cfg.Nodes = []int{2, 4}
	cfg.Tolerance = 0.05
	cfg.Metrics = []string{"mbps", "faults"}
	cfg.Tables = []TableSpec{{Title: "t", Metric: "mbps", Rows: AxisPages, Cols: AxisVariant, Split: AxisNodes}}
	cfg.Speedups = []SpeedupSpec{{Name: "pv", Metric: "mbps", Numer: "patched", Denom: "unpatched"}}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("round trip drifted:\n%s\n%s", data, again)
	}
}

func TestSeedForDerivation(t *testing.T) {
	fixed := validConfig()
	fixed.SeedPolicy, fixed.BaseSeed = SeedFixed, 7
	for r := 0; r < 3; r++ {
		if got := fixed.SeedFor(r); got != 7 {
			t.Errorf("fixed seed for repeat %d = %d, want 7", r, got)
		}
	}
	per := validConfig()
	per.BaseSeed = 5
	for r, want := range []int64{5, 5 + SeedStride, 5 + 2*SeedStride} {
		if got := per.SeedFor(r); got != want {
			t.Errorf("per-repeat seed for repeat %d = %d, want %d", r, got, want)
		}
	}
}

func TestEffectiveDefaults(t *testing.T) {
	cfg := validConfig()
	if !cfg.Wants(OutCSV) || !cfg.Wants(OutJSON) || !cfg.Wants(OutMD) || cfg.Wants(OutFigures) {
		t.Error("a grid campaign's default outputs are not csv, json and md")
	}
	cfg.Experiments = []string{"fig7"}
	if !cfg.Wants(OutFigures) {
		t.Error("experiments configured but figures not in the default output set")
	}
	figs := Config{Experiments: []string{"fig7"}}
	if figs.Wants(OutCSV) || figs.Wants(OutJSON) || figs.Wants(OutMD) || !figs.Wants(OutFigures) {
		t.Error("an experiments-only campaign's default output is not figures alone")
	}
	// The metric subset must come back in schema order, not config order.
	cfg.Metrics = []string{"faults", "mbps"}
	if got := cfg.metrics(); got[0] != "mbps" || got[1] != "faults" || len(got) != 2 {
		t.Errorf("metrics() = %v, want schema order [mbps faults]", got)
	}
	if tb := (&Config{}).tables(); len(tb) != 1 || tb[0].Metric != "mbps" || tb[0].Split != AxisNodes {
		t.Errorf("default tables = %+v", tb)
	}
}
