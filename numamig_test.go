package numamig

import (
	"fmt"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys := New(Config{})
	var hist []int
	err := sys.Run(func(tk *Task) {
		buf := MustAlloc(tk, 1<<20, Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		nt := sys.NewKernelNT()
		if _, err := nt.Mark(tk, buf.Region()); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(12) // node 3
		if err := buf.Access(tk, Stream, false); err != nil {
			t.Fatal(err)
		}
		h, absent := buf.NodeHistogram(tk)
		if absent != 0 {
			t.Fatalf("absent pages: %d", absent)
		}
		hist = h
	})
	if err != nil {
		t.Fatal(err)
	}
	if hist[3] != 256 || hist[0] != 0 {
		t.Fatalf("pages did not follow thread: %v", hist)
	}
	if sys.Stats().NTMigrations != 256 {
		t.Fatalf("NT migrations = %d", sys.Stats().NTMigrations)
	}
	if sys.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestConfigDefaultsToPaperHost(t *testing.T) {
	sys := New(Config{})
	if sys.Machine.NumNodes() != 4 || sys.Machine.NumCores() != 16 {
		t.Fatalf("default machine = %d nodes %d cores", sys.Machine.NumNodes(), sys.Machine.NumCores())
	}
	if sys.Machine.Nodes[0].MemBytes != 8<<30 || sys.Machine.Nodes[0].L3Bytes != 2<<20 {
		t.Fatal("default memory/L3 wrong")
	}
}

func TestCustomMachineShape(t *testing.T) {
	sys := New(Config{Nodes: 2, CoresPerNode: 2, MemPerNode: 1 << 30})
	if sys.Machine.NumNodes() != 2 || sys.Machine.NumCores() != 4 {
		t.Fatal("custom shape ignored")
	}
}

// TestNewRejectsZeroKswapdPeriod: with a zero kswapd period every
// demotion daemon would re-arm at the instant it was polled, and Run
// would loop forever inside one engine event, below the MaxSteps guard.
// New panics at construction instead, naming the daemon and its period.
func TestNewRejectsZeroKswapdPeriod(t *testing.T) {
	p := DefaultParams()
	p.KswapdPeriod = 0
	msg := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		New(Config{Nodes: 2, CoresPerNode: 1, MemPerNode: 1 << 26, Demotion: true, Params: &p})
		return "New returned"
	}()
	if !strings.Contains(msg, "daemon kswapd0 has period 0ns") {
		t.Fatalf("New with KswapdPeriod 0: %s, want a panic naming kswapd0 and its period", msg)
	}
}

func TestUserNTViaPublicAPI(t *testing.T) {
	sys := New(Config{})
	u := sys.NewUserNT(true)
	err := sys.Run(func(tk *Task) {
		buf := MustAlloc(tk, 64*PageSize, Bind(1))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		if err := u.Mark(tk, buf.Region()); err != nil {
			t.Fatal(err)
		}
		tk.MigrateTo(8) // node 2
		if err := buf.Access(tk, Blocked, true); err != nil {
			t.Fatal(err)
		}
		h, _ := buf.NodeHistogram(tk)
		if h[2] != 64 {
			t.Fatalf("user NT histogram: %v", h)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.Migrations != 1 {
		t.Fatalf("user NT migrations = %d", u.Stats.Migrations)
	}
}

func TestTeamsViaPublicAPI(t *testing.T) {
	sys := New(Config{})
	counts := map[NodeID]int{}
	err := sys.Run(func(tk *Task) {
		team := sys.TeamOfNode(2)
		if team.Size() != 4 {
			t.Fatalf("node team size = %d", team.Size())
		}
		team.Parallel(tk, func(w *Task, tid int) {
			counts[w.Node()]++
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[2] != 4 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestManagerViaPublicAPI(t *testing.T) {
	sys := New(Config{})
	m := sys.NewManager(Sync, true)
	err := sys.Run(func(tk *Task) {
		buf := MustAlloc(tk, 32*PageSize, Bind(0))
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		m.Attach(tk, buf.Region())
		if err := m.MoveThread(tk, 4); err != nil { // node 1
			t.Fatal(err)
		}
		h, _ := buf.NodeHistogram(tk)
		if h[1] != 32 {
			t.Fatalf("sync manager histogram: %v", h)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBufferFreeAndString(t *testing.T) {
	sys := New(Config{})
	err := sys.Run(func(tk *Task) {
		buf := MustAlloc(tk, 8*PageSize, FirstTouch())
		if buf.Pages() != 8 {
			t.Fatalf("pages = %d", buf.Pages())
		}
		if buf.String() == "" {
			t.Fatal("empty string")
		}
		if err := buf.Prefault(tk); err != nil {
			t.Fatal(err)
		}
		if err := buf.Free(tk); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Time {
		sys := New(Config{Seed: 99})
		_ = sys.Run(func(tk *Task) {
			buf := MustAlloc(tk, 2<<20, Interleave(0, 1, 2, 3))
			_ = buf.Prefault(tk)
			nt := sys.NewKernelNT()
			_, _ = nt.Mark(tk, buf.Region())
			tk.MigrateTo(5)
			_ = buf.Access(tk, Blocked, false)
		})
		return sys.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
