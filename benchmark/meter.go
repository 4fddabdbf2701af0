package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	numamig "numamig"
	"numamig/internal/migrate"
	"numamig/internal/sim"
)

// minUnits is the fewest units the timed phase of an untraced run
// measures, so that unit_ms_p90 always has minTail samples beyond it.
const minUnits = 100

// meter times one phase: its passes (host wall and process CPU each) and
// the units inside them. A timed phase runs whole passes until seconds
// have passed and minUnits units are done, and ends only on a multiple
// of cycle passes, so that it covers the workload's inputs evenly; a
// traced phase runs a fixed number of passes so its simulated counts
// repeat exactly.
type meter struct {
	ref      *speedRef // sampled between passes when set
	t0       time.Time
	seconds  time.Duration
	minUnits int
	cycle    int
	passes   int // fixed pass count; 0 means time-bounded
	passWall []float64
	passCPU  []float64

	passT0   time.Time
	passCPU0 time.Duration

	mu     sync.Mutex
	unitMS []float64
	spans  []span
}

// span is one timed interval of a phase, relative to the phase start:
// a unit (a scenario, an LU cell, a churn wave, a serve call) on its
// worker's track, or a whole pass on track 0.
type span struct {
	name       string
	tid        int
	start, dur time.Duration
	sim        sim.Time // simulated duration the unit reported
}

func timedMeter(seconds time.Duration, minUnits, cycle int, ref *speedRef) *meter {
	return &meter{t0: time.Now(), seconds: seconds, minUnits: minUnits, cycle: cycle, ref: ref}
}

func fixedMeter(passes int) *meter {
	return &meter{t0: time.Now(), passes: passes}
}

// more reports whether another pass should run.
func (m *meter) more() bool {
	n := len(m.passWall)
	if m.passes > 0 {
		return n < m.passes
	}
	return n%m.cycle != 0 || n == 0 || time.Since(m.t0) < m.seconds || m.units() < m.minUnits
}

func (m *meter) begin() {
	if m.ref != nil {
		m.ref.maybeSample()
	}
	m.passCPU0 = cpuTime()
	m.passT0 = time.Now()
}

func (m *meter) end() {
	wall := time.Since(m.passT0)
	cpu := cpuTime() - m.passCPU0
	m.passWall = append(m.passWall, wall.Seconds())
	m.passCPU = append(m.passCPU, cpu.Seconds())
	m.mu.Lock()
	m.spans = append(m.spans, span{
		name:  "pass " + strconv.Itoa(len(m.passWall)),
		start: m.passT0.Sub(m.t0), dur: wall,
	})
	m.mu.Unlock()
}

// unit records one unit that started at start and ends now, run on
// worker track tid, with the simulated duration it reported. Safe for
// concurrent use.
func (m *meter) unit(tid int, name string, start time.Time, simDur sim.Time) {
	dur := time.Since(start)
	m.mu.Lock()
	m.unitMS = append(m.unitMS, float64(dur)/float64(time.Millisecond))
	m.spans = append(m.spans, span{name: name, tid: tid, start: start.Sub(m.t0), dur: dur, sim: simDur})
	m.mu.Unlock()
}

// units returns the number of units recorded so far.
func (m *meter) units() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.unitMS)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's high-water resident set (VmHWM) in
// bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// writeTrace renders spans as chrome-trace JSON (chrome://tracing,
// Perfetto): one complete ("X") event per span, host microseconds from
// the phase start, and each unit's simulated milliseconds as an
// argument.
func writeTrace(w io.Writer, title string, spans []span) error {
	type args struct {
		Name  string   `json:"name,omitempty"`
		SimMS *float64 `json:"sim_ms,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args *args   `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: &args{Name: title}}}
	tracks := map[int]bool{}
	for _, s := range spans {
		if !tracks[s.tid] {
			tracks[s.tid] = true
			name := "passes"
			if s.tid > 0 {
				name = "worker " + strconv.Itoa(s.tid)
			}
			evs = append(evs, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.tid, Args: &args{Name: name}})
		}
		ev := event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: s.tid}
		if s.tid > 0 {
			ms := s.sim.Millis()
			ev.Args = &args{SimMS: &ms}
		}
		evs = append(evs, ev)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// simCounts is simulated work summed over Systems: exact, and identical
// on every run of the same inputs.
type simCounts struct {
	Events        uint64 // sim.Engine steps
	DemandAllocs  uint64
	Faults        uint64
	Syscalls      uint64
	TLBShootdowns uint64
	PTEsScanned   uint64 // AutoNUMA scanner plus kswapd clock scan
	Requests      uint64 // migration-engine requests, both strategies
	Moved         uint64
	Local         uint64
	Absent        uint64
	Busy          uint64
	Raced         uint64
	RetryPasses   uint64
	BusEvents     uint64 // telemetry events delivered to the lit workload's subscriber
}

func (c *simCounts) addSystem(sys *numamig.System) {
	st := sys.Stats()
	c.Events += sys.Eng.Steps()
	c.DemandAllocs += st.DemandAllocs
	c.Faults += st.Faults
	c.Syscalls += st.Syscalls
	c.TLBShootdowns += st.TLBShootdowns
	c.PTEsScanned += st.NumaPtesScanned + st.KswapdPtesScanned
	for _, s := range []migrate.Strategy{numamig.Patched, numamig.Unpatched} {
		ms := sys.Migrator(s).Stats
		c.Requests += ms.Requests
		c.Moved += ms.PagesMoved
		c.Local += ms.PagesLocal
		c.Absent += ms.PagesAbsent
		c.Busy += ms.PagesBusy
		c.Raced += ms.PagesRaced
		c.RetryPasses += ms.RetryPasses
	}
}

// usefulRatio is pages moved over every page the migration engine
// looked at: moved, busy, raced, absent or already local.
func (c *simCounts) usefulRatio() float64 {
	all := c.Moved + c.Busy + c.Raced + c.Absent + c.Local
	if all == 0 {
		return 0
	}
	return float64(c.Moved) / float64(all)
}

// collector gathers every System built while it is installed as the
// System observer and folds their counts between passes, when every
// System of the finished pass has finished too.
type collector struct {
	mu      sync.Mutex
	systems []*numamig.System
	counts  simCounts
}

func (c *collector) add(sys *numamig.System) {
	c.mu.Lock()
	c.systems = append(c.systems, sys)
	c.mu.Unlock()
}

func (c *collector) fold() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.systems {
		c.counts.addSystem(s)
	}
	c.systems = nil
}
