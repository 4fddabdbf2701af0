package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"numamig/internal/topology"
)

// Recorder captures the full event stream of one System for offline
// export. Attach with Record before the run; after the run, WriteTrace
// renders the log in the chrome-trace (chrome://tracing / Perfetto)
// JSON format: per-task fault storms and migration batches, per-node
// kswapd reclaim slices and demotions, and control-plane instants
// (promotions, rate-limit drops, tier traffic).
type Recorder struct {
	Events []Event
}

// Record attaches a recorder to every topic of b.
func Record(b *Bus) *Recorder {
	r := &Recorder{}
	b.SubscribeAll(func(ev Event) { r.Events = append(r.Events, ev) })
	return r
}

// traceEvent is one entry of the chrome-trace "traceEvents" array.
// Fixed struct fields (no maps) keep the marshalled output
// deterministic.
type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"` // microseconds of virtual time
	Dur  float64         `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	S    string          `json:"s,omitempty"` // instant scope
	Args *traceEventArgs `json:"args,omitempty"`
}

type traceEventArgs struct {
	Name  string  `json:"name,omitempty"`
	Pages int     `json:"pages,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`
	Node  int     `json:"node,omitempty"`
	Dst   int     `json:"dst,omitempty"`
	Value float64 `json:"value,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Process/track layout of the exported trace.
const (
	tracePidTasks   = 1 // tid = task (sim proc) ID
	tracePidKswapd  = 2 // tid = node
	tracePidControl = 3 // tid = node
)

func usec(t int64) float64 { return float64(t) / 1e3 }

// WriteTrace renders the recorded log as chrome-trace JSON. Output is
// a pure function of the recorded events: deterministic byte-for-byte.
func (r *Recorder) WriteTrace(w io.Writer) error {
	tf := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	emitMeta := func(pid int, name string) {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: &traceEventArgs{Name: name},
		})
	}
	emitMeta(tracePidTasks, "tasks")
	emitMeta(tracePidKswapd, "kswapd")
	emitMeta(tracePidControl, "control")

	// Thread-name metadata: collect the task IDs and nodes the log
	// touches, in sorted order so the header block is stable.
	tasks := map[int]bool{}
	nodes := map[topology.NodeID]bool{}
	for _, ev := range r.Events {
		switch ev.Topic {
		case TopicPageFault, TopicNumaHintFault, TopicMigrateBatch:
			tasks[ev.Task] = true
		case TopicKswapdWake, TopicDemote:
			nodes[ev.Node] = true
		}
	}
	taskIDs := make([]int, 0, len(tasks))
	for id := range tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Ints(taskIDs)
	nodeIDs := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, int(n))
	}
	sort.Ints(nodeIDs)
	for _, id := range taskIDs {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePidTasks, Tid: id,
			Args: &traceEventArgs{Name: fmt.Sprintf("proc %d", id)},
		})
	}
	for _, n := range nodeIDs {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePidKswapd, Tid: n,
			Args: &traceEventArgs{Name: fmt.Sprintf("kswapd/node%d", n)},
		})
	}

	for _, ev := range r.Events {
		switch ev.Topic {
		case TopicPageFault:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "PageFault", Ph: "i", S: "t",
				Ts: usec(int64(ev.Time)), Pid: tracePidTasks, Tid: ev.Task,
				Args: &traceEventArgs{Pages: ev.Pages, Node: int(ev.Node)},
			})
		case TopicNumaHintFault:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "NumaHintFault", Ph: "i", S: "t",
				Ts: usec(int64(ev.Time)), Pid: tracePidTasks, Tid: ev.Task,
				Args: &traceEventArgs{Pages: ev.Pages, Node: int(ev.Node)},
			})
		case TopicMigrateBatch:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "MigrateBatch", Ph: "X",
				Ts:  usec(int64(ev.Time - ev.Dur)),
				Dur: usec(int64(ev.Dur)),
				Pid: tracePidTasks, Tid: ev.Task,
				Args: &traceEventArgs{
					Pages: ev.Pages, Bytes: ev.Bytes, Value: ev.Value,
				},
			})
		case TopicKswapdWake:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "KswapdWake", Ph: "X",
				Ts:  usec(int64(ev.Time - ev.Dur)),
				Dur: usec(int64(ev.Dur)),
				Pid: tracePidKswapd, Tid: int(ev.Node),
				Args: &traceEventArgs{Node: int(ev.Node)},
			})
		case TopicDemote:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "Demote", Ph: "i", S: "t",
				Ts: usec(int64(ev.Time)), Pid: tracePidKswapd, Tid: int(ev.Node),
				Args: &traceEventArgs{Pages: ev.Pages, Value: ev.Value},
			})
		case TopicPromote:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "Promote", Ph: "i", S: "t",
				Ts: usec(int64(ev.Time)), Pid: tracePidControl, Tid: int(ev.Dst),
				Args: &traceEventArgs{Pages: ev.Pages, Dst: int(ev.Dst)},
			})
		case TopicRateLimitDrop:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "RateLimitDrop", Ph: "i", S: "t",
				Ts: usec(int64(ev.Time)), Pid: tracePidControl, Tid: int(ev.Node),
				Args: &traceEventArgs{Pages: ev.Pages, Node: int(ev.Node)},
			})
		case TopicTierTraffic:
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "TierTraffic", Ph: "i", S: "t",
				Ts: usec(int64(ev.Time)), Pid: tracePidControl, Tid: int(ev.Node),
				Args: &traceEventArgs{
					Bytes: ev.Bytes, Node: int(ev.Node),
					Dst: int(ev.Dst), Value: ev.Value,
				},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&tf)
}
