package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current recorder")

// crashRecoverRun compiles progen program seed (two threads) and runs it on
// a two-core machine with one-way 256 B L1 / 512 B L2 caches, a 16 KB DRAM
// cache and a two-entry front-end drained every 32 cycles, so writebacks and
// front-end stalls are frequent. It crashes after num/den of the crash-free
// run's instructions, recovers with tap installed before replay and resumes
// to completion; tap sees the whole run. It reports false when the program
// finished before the crash point.
func crashRecoverRun(t *testing.T, seed, num, den uint64, tap audit.Sink) bool {
	t.Helper()
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	res, err := compile.Compile(progen.Generate(seed, gcfg), compile.OptionsForLevel(compile.LevelLICM, 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threshold = 16
	cfg.L1Size, cfg.L1Ways = 256, 1
	cfg.L2Size, cfg.L2Ways = 512, 1
	cfg.DRAMSize = 1 << 14
	cfg.FrontEndEntries = 2
	cfg.ProxyInterval = 32

	ref, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTap(tap)
	if err := m.RunUntil(ref.Instret() * num / den); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		return false
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := machine.RecoverOrdered(img, nil, tap)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return true
}

// timelineKinds maps the audit kinds a Recorder keeps onto trace kinds.
var timelineKinds = map[audit.Kind]Kind{
	audit.EvCommit:       KindRegionCommit,
	audit.EvDrain:        KindPhase2Drain,
	audit.EvWriteback:    KindWriteback,
	audit.EvStall:        KindFrontStall,
	audit.EvCrash:        KindCrash,
	audit.EvRecoveryDone: KindRecovery,
}

// TestRecorderProjectsTapStream tees a Recorder with a FlightRecorder over
// crash→recover→resume runs and asserts the Recorder holds exactly the
// flight recorder's timeline-kind subsequence, in order, with every payload
// field mapped — and that the runs produce all six kinds.
func TestRecorderProjectsTapStream(t *testing.T) {
	seen := map[Kind]int{}
	for seed := uint64(0); seed < 6; seed++ {
		for _, num := range []uint64{1, 2, 3} {
			fr := audit.NewFlightRecorder(1 << 20)
			rec := NewRecorder()
			if !crashRecoverRun(t, seed, num, 4, audit.Tee(fr, rec)) {
				continue
			}
			if fr.Dropped() != 0 {
				t.Fatalf("seed %d: flight recorder dropped %d events", seed, fr.Dropped())
			}
			var want []Event
			for _, a := range fr.Events() {
				k, ok := timelineKinds[a.Kind]
				if !ok {
					continue
				}
				e := Event{Kind: k, Core: int(a.Core), Cycle: a.Cycle}
				switch a.Kind {
				case audit.EvCommit:
					e.Region = a.Region
				case audit.EvDrain:
					e.Region, e.Addr, e.Addr2, e.Count = a.Region, a.Val, a.Val2, int(a.Count)
				case audit.EvWriteback:
					e.Addr = a.Addr
				case audit.EvRecoveryDone:
					e = Event{Kind: k, Core: int(a.Count), Note: "cores"}
				}
				want = append(want, e)
			}
			got := rec.Events()
			if len(got) != len(want) {
				t.Fatalf("seed %d crash@%d/4: recorder holds %d events, tap carried %d timeline events",
					seed, num, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d crash@%d/4 event %d: recorded %+v, want %+v", seed, num, i, got[i], want[i])
				}
				seen[got[i].Kind]++
			}
			if err := CheckRegionOrder(got); err != nil {
				t.Errorf("seed %d crash@%d/4: %v", seed, num, err)
			}
		}
	}
	for _, k := range timelineKinds {
		if seen[k] == 0 {
			t.Errorf("no %s events across the runs: mapping untested", k)
		}
	}
}

// TestCrashRecoverGolden pins the text and Chrome renderings of one fixed
// crash→recover→resume run byte for byte (testdata/crash_recover.*). Run
// with -update to rewrite them after an intended format change.
func TestCrashRecoverGolden(t *testing.T) {
	rec := NewRecorder()
	if !crashRecoverRun(t, 2, 1, 2, rec) {
		t.Fatal("program finished before the crash point")
	}
	var text, chrome bytes.Buffer
	if _, err := rec.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTo(&chrome); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"crash_recover.txt":  text.Bytes(),
		"crash_recover.json": chrome.Bytes(),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted (%d bytes, golden %d); rerun with -update only for an intended change",
				path, len(got), len(want))
		}
	}
}
