package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pbuf hand-encodes protocol-buffer messages.
type pbuf struct{ b []byte }

func (p *pbuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pbuf) uint(num int, x uint64) {
	p.varint(uint64(num<<3 | wireVarint))
	p.varint(x)
}

func (p *pbuf) bytes(num int, b []byte) {
	p.varint(uint64(num<<3 | wireBytes))
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(num int, xs ...uint64) {
	var q pbuf
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// testProfile encodes a CPU profile with five known stacks; the
// function and string-table ids coincide.
func testProfile(t *testing.T) []byte {
	strs := []string{
		"", "samples", "count",
		"numamig/internal/kern.(*Task).FaultIn",   // 3
		"numamig/internal/vm.(*PageTable).Get",    // 4
		"runtime.gcBgMarkWorker",                  // 5
		"runtime.gcDrain",                         // 6
		"runtime.mallocgc",                        // 7
		"main.main",                               // 8
		"numamig/internal/sim.(*Engine).dispatch", // 9
		"numamig/internal/sim.(*Proc).park",       // 10
		"numamig/internal/sim.(*Proc).Sleep",      // 11
		"runtime.futex",                           // 12
	}
	// Locations, each a list of function ids innermost first.
	locs := map[uint64][]uint64{
		1: {4, 3},      // vm.Get inlined into kern.FaultIn
		2: {6}, 3: {5}, // a GC mark worker's stack
		4: {7}, 5: {8}, // an allocation in the benchmark's own main package
		6: {9}, 7: {10, 11}, // engine dispatch under park, inlined into Sleep
		8: {12}, // runtime only
	}
	samples := []struct {
		locs   []uint64
		weight uint64
		packed bool
	}{
		{[]uint64{1}, 5, false},
		{[]uint64{2, 3}, 3, false},
		{[]uint64{4, 5}, 2, true},
		{[]uint64{6, 7}, 8, true},
		{[]uint64{8}, 2, false},
	}

	var p pbuf
	var vt pbuf
	vt.uint(1, 1)
	vt.uint(2, 2)
	p.bytes(1, vt.b) // sample_type
	for _, s := range samples {
		var sb pbuf
		if s.packed {
			sb.packed(1, s.locs...)
			sb.packed(2, s.weight, s.weight*1e7)
		} else {
			for _, l := range s.locs {
				sb.uint(1, l)
			}
			sb.uint(2, s.weight)
			sb.uint(2, s.weight*1e7)
		}
		p.bytes(2, sb.b)
	}
	for id := uint64(1); id <= uint64(len(locs)); id++ {
		var lb pbuf
		lb.uint(1, id)
		lb.uint(3, 0x1000*id) // address
		for _, f := range locs[id] {
			var line pbuf
			line.uint(1, f)
			line.uint(2, 42)
			lb.bytes(4, line.b)
		}
		p.bytes(4, lb.b)
	}
	for id := 3; id < len(strs); id++ {
		var fb pbuf
		fb.uint(1, uint64(id))
		fb.uint(2, uint64(id))
		fb.uint(3, uint64(id))
		p.bytes(5, fb.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10000000) // period

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	prof, err := parseProfile(bytes.NewReader(testProfile(t)))
	if err != nil {
		t.Fatal(err)
	}
	shares, park, fluid := prof.cpuShares()
	want := map[string]float64{
		"vm":       5.0 / 20, // the inlined vm frame, not its kern caller
		"go.gc":    3.0 / 20,
		"go.other": 4.0 / 20, // main.main is not a repository package
		"sim":      8.0 / 20,
	}
	sum := 0.0
	for k, v := range shares {
		sum += v
		if v != want[k] {
			t.Errorf("share %s = %g, want %g", k, v, want[k])
		}
	}
	for k := range want {
		if _, ok := shares[k]; !ok {
			t.Errorf("share %s missing", k)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if park != 8.0/20 || fluid != 0 {
		t.Errorf("park %g, fluid %g; want %g, 0", park, fluid, 8.0/20)
	}
}

func TestProfileRejectsCorruptInput(t *testing.T) {
	good := testProfile(t)
	if _, err := parseProfile(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated gzip stream parsed")
	}
	var bad pbuf
	bad.varint(uint64(2<<3 | wireBytes))
	bad.varint(100) // length past the end
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(bad.b)
	zw.Close()
	if _, err := parseProfile(&buf); err == nil {
		t.Error("overlong field parsed")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"numamig.New": "numamig",
		"numamig/internal/exp.runMigration.func1":  "exp",
		"numamig/internal/sim.(*Fluid).Transfer":   "sim",
		"numamig/internal/vm.(*PageTable).Extents": "vm",
		"main.main":        "",
		"runtime.mallocgc": "",
		"sort.Search":      "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
