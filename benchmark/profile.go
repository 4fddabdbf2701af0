package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the gzipped protocol-buffer profiles runtime/pprof
// writes, with the standard library only, and attributes their samples
// to the repository's layers (its Go packages).

// profile is the part of a decoded CPU profile attribution needs.
type profile struct {
	samples []profSample
	// frames maps a location id to its function names, innermost first:
	// a location with inlined calls holds one name per inlined frame.
	frames map[uint64][]string
}

// profSample is one stack (location ids, leaf first) and its weight,
// the first sample value (the sample count of a CPU profile).
type profSample struct {
	locs   []uint64
	weight int64
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// protoFields calls fn for every field of one encoded message: its
// number, wire type, varint value (wireVarint) and payload (wireBytes).
func protoFields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case wireVarint:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes one base-128 varint, returning the byte count read
// (0 or less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, which encoders write
// either packed (one length-delimited payload) or one value per field.
func appendVarints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == wireVarint {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{} // function id -> string index
		locFuncs = map[uint64][]uint64{}
		p        = &profile{frames: map[uint64][]string{}}
	)
	err = protoFields(raw, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			err := protoFields(data, func(num, wt int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wt, v, data)
				case 2:
					values, err = appendVarints(values, wt, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.weight = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(data, func(num, wt int, v uint64, data []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, funcs := range locFuncs {
		names := make([]string, len(funcs))
		for i, f := range funcs {
			si, ok := funcName[f]
			if !ok || si < 0 || si >= int64(len(strs)) {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, f)
			}
			names[i] = strs[si]
		}
		p.frames[loc] = names
	}
	return p, nil
}

// modulePath is the import path prefix of the repository's packages.
const modulePath = "numamig"

// layerOf returns the repository package a function belongs to ("sim"
// for numamig/internal/sim, "numamig" for the root package), or "" for
// a function outside the repository (runtime, standard library, the
// benchmark's own package main).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, modulePath+".") {
		return modulePath
	}
	rest, ok := strings.CutPrefix(fn, modulePath+"/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return ""
}

// isGC reports whether a runtime function is part of the garbage
// collector: a background mark worker, a mark assist or the sweeper.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.markroot"
}

// Frames whose presence anywhere on a stack the cumulative shares count.
const (
	parkFrame   = modulePath + "/internal/sim.(*Proc).park"
	fluidPrefix = modulePath + "/internal/sim.(*Fluid)."
)

// cpuShares attributes each sample to the innermost frame, inlined
// frames included, whose function belongs to a repository package; a
// stack with none goes to "go.gc" when it shows a GC worker, assist or
// sweeper and to "go.other" otherwise. The shares of all keys sum to 1.
// park and fluid are cumulative shares: the samples with
// sim.(*Proc).park, or any sim.(*Fluid) method, anywhere on the stack.
func (p *profile) cpuShares() (shares map[string]float64, park, fluid float64) {
	weights := map[string]int64{}
	var total, parkW, fluidW int64
	for _, s := range p.samples {
		total += s.weight
		layer, gc, onPark, onFluid := "", false, false, false
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				if layer == "" {
					layer = layerOf(fn)
				}
				gc = gc || isGC(fn)
				onPark = onPark || fn == parkFrame
				onFluid = onFluid || strings.HasPrefix(fn, fluidPrefix)
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "go.gc"
		default:
			layer = "go.other"
		}
		weights[layer] += s.weight
		if onPark {
			parkW += s.weight
		}
		if onFluid {
			fluidW += s.weight
		}
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0, 0
	}
	for k, w := range weights {
		shares[k] = float64(w) / float64(total)
	}
	return shares, float64(parkW) / float64(total), float64(fluidW) / float64(total)
}
