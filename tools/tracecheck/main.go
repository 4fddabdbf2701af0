// Command tracecheck validates a chrome-trace JSON file produced by
// `numabench -trace`. It is the tier-1 gate for the trace exporter
// (cmd/numabench's TestTraceExport and the benchmark's traced run): a
// regression that makes the exporter emit malformed JSON, an empty
// event stream, or events chrome://tracing / Perfetto would reject
// fails the tests before a human ever loads the file.
//
// Checks:
//
//   - the file parses as a JSON object with a traceEvents array;
//   - the array holds at least one event;
//   - every event has a non-empty name and a phase in the set the
//     exporter may legally emit (M metadata, X complete slices,
//     i/I instants, C counters, B/E duration pairs);
//   - timestamps are non-negative and X slices carry a non-negative
//     duration.
//
// Usage (from the module root):
//
//	go run ./tools/tracecheck trace.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// traceEvent mirrors the subset of the chrome-trace event schema the
// checks need; unknown fields are ignored by encoding/json.
type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

var validPhases = map[string]bool{
	"M": true, "X": true, "i": true, "I": true,
	"C": true, "B": true, "E": true,
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		os.Exit(2)
	}
	path := os.Args[1]
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(2)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: not valid trace JSON: %v\n", path, err)
		os.Exit(1)
	}
	if len(tf.TraceEvents) == 0 {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: traceEvents is empty\n", path)
		os.Exit(1)
	}
	bad := 0
	for i, ev := range tf.TraceEvents {
		switch {
		case ev.Name == "":
			fmt.Fprintf(os.Stderr, "tracecheck: event %d has no name\n", i)
		case !validPhases[ev.Ph]:
			fmt.Fprintf(os.Stderr, "tracecheck: event %d (%s) has invalid phase %q\n", i, ev.Name, ev.Ph)
		case ev.Ts < 0:
			fmt.Fprintf(os.Stderr, "tracecheck: event %d (%s) has negative ts %g\n", i, ev.Name, ev.Ts)
		case ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0):
			fmt.Fprintf(os.Stderr, "tracecheck: event %d (%s) is an X slice without a non-negative dur\n", i, ev.Name)
		default:
			continue
		}
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %d invalid of %d events\n", path, bad, len(tf.TraceEvents))
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s: %d events OK\n", path, len(tf.TraceEvents))
}
