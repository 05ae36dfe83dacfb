package machine

import (
	"reflect"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/isa"
	"capri/internal/prog"
)

// attachAudit wires a flight recorder and an online auditor to m (recorder
// first, so violation chains include the offending event) and returns both.
func attachAudit(t *testing.T, m *Machine) (*audit.FlightRecorder, *audit.Auditor) {
	t.Helper()
	rec := audit.NewFlightRecorder(0)
	aud := audit.NewAuditor(m.AuditOptions())
	aud.AttachRecorder(rec)
	m.SetTap(audit.Tee(rec, aud))
	return rec, aud
}

// TestAuditedRunClean runs an unmutated machine under the full provenance
// tap and asserts the Fig. 7 auditor sees zero violations while observing a
// complete event stream (stores, commits, launches, arrivals, drains).
func TestAuditedRunClean(t *testing.T) {
	cp := compileFor(t, sumProgram(300), 32)
	m, err := New(cp, testConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	rec, aud := attachAudit(t, m)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	counts := rec.KindCounts()
	for _, k := range []audit.Kind{audit.EvStore, audit.EvCommit, audit.EvLaunch,
		audit.EvBackArrive, audit.EvDrain, audit.EvDrainWrite} {
		if counts[k] == 0 {
			t.Errorf("no %s events observed", k)
		}
	}
	if aud.EventsAudited() != rec.Total() {
		t.Errorf("auditor saw %d events, recorder %d", aud.EventsAudited(), rec.Total())
	}
}

// raceProgram builds the Figure 7 writeback-race workload: a hot line
// rewritten every region plus cold conflicting traffic that evicts it, so
// dirty writebacks race in-flight proxy entries.
func raceProgram() *prog.Program {
	bd := prog.NewBuilder("fig7audit")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	const (
		rI    = isa.Reg(8)
		rN    = isa.Reg(9)
		rHot  = isa.Reg(10)
		rCold = isa.Reg(11)
		rV    = isa.Reg(12)
		rOff  = isa.Reg(13)
	)
	f.SetBlock(entry)
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(rI, 0)
	f.MovI(rN, 120)
	f.MovI(rHot, int64(HeapBase))
	f.MovI(rCold, int64(HeapBase)+1<<16)
	f.MovI(rV, 1)
	f.Br(header)
	f.SetBlock(header)
	f.BrIf(rI, isa.CondGE, rN, exit, body)
	f.SetBlock(body)
	f.Load(rV, rHot, 0)
	f.Add(rV, rV, rI)
	f.AddI(rV, rV, 1)
	f.Store(rHot, 0, rV)
	f.Store(rHot, 8, rI)
	f.MulI(rOff, rI, 64)
	f.OpI(isa.OpAndI, rOff, rOff, (1<<14)-1)
	f.Add(rOff, rOff, rCold)
	f.Store(rOff, 0, rV)
	f.Load(rOff, rOff, 0)
	f.AddI(rI, rI, 1)
	f.Br(header)
	f.SetBlock(exit)
	f.Emit(rV)
	f.Halt()
	return bd.Program()
}

// raceConfig is the matching machine configuration: tiny direct-mapped
// caches and a long proxy path to widen the race window.
func raceConfig() Config {
	cfg := testConfig(64)
	cfg.L1Size = 128
	cfg.L1Ways = 1
	cfg.L2Size = 128
	cfg.L2Ways = 1
	cfg.DRAMSize = 1 << 14
	cfg.ProxyLatency = 400
	cfg.ProxyInterval = 16
	return cfg
}

func compileRace(t *testing.T) *prog.Program {
	t.Helper()
	opts := compile.DefaultOptions()
	opts.Threshold = 64
	opts.MaxUnroll = 8
	res, err := compile.Compile(raceProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

// TestAuditedWritebackRace audits the Figure 7 writeback-race configuration:
// tiny caches evict hot lines constantly, so dirty writebacks race in-flight
// proxy entries, exercising the monitoring-window and sequence-guard rules.
// The unmutated machine must still audit clean.
func TestAuditedWritebackRace(t *testing.T) {
	m, err := New(compileRace(t), raceConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, aud := attachAudit(t, m)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("writeback-race run flagged: %v", err)
	}
	// The race must actually have occurred, or this test proves nothing.
	s := m.Stats()
	if s.ScanHits == 0 && s.WindowHits == 0 && s.NVMStaleSkips == 0 {
		t.Fatal("no writeback/proxy race provoked; tighten the config")
	}
	if rec.KindCounts()[audit.EvWritebackWord] == 0 {
		t.Error("no writeback words observed")
	}
}

// TestAuditedCrashSweep crashes the machine at a spread of points, recovers
// with RecoverOrdered (the tap installed *before* replay, so the auditor
// observes the recovery protocol itself), resumes under the same auditor, and
// asserts both the audit verdict and the golden output.
func TestAuditedCrashSweep(t *testing.T) {
	cp := compileFor(t, sumProgram(120), 32)
	cfg := testConfig(32)

	golden, err := New(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	goldenOut := golden.Output(0)
	total := golden.Instret()

	step := total/23 + 1
	recovered := 0
	for crashAt := uint64(1); crashAt < total; crashAt += step {
		m, err := New(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := audit.NewFlightRecorder(0)
		aud := audit.NewAuditor(m.AuditOptions())
		aud.AttachRecorder(rec)
		tap := audit.Tee(rec, aud)
		m.SetTap(tap)
		if err := m.RunUntil(crashAt); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			break
		}
		img, err := m.Crash()
		if err != nil {
			t.Fatal(err)
		}
		// The same auditor stays attached across the crash: its NVM shadow
		// carries over, and it watches the recovery replay and the resumed
		// execution.
		r, _, err := RecoverOrdered(img, nil, tap)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d resume: %v", crashAt, err)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("crash@%d audit: %v", crashAt, err)
		}
		if !reflect.DeepEqual(r.Output(0), goldenOut) {
			t.Fatalf("crash@%d: output %v, want %v", crashAt, r.Output(0), goldenOut)
		}
		if rec.KindCounts()[audit.EvCrash] != 1 {
			t.Fatalf("crash@%d: recorded %d crash events", crashAt, rec.KindCounts()[audit.EvCrash])
		}
		recovered++
	}
	if recovered == 0 {
		t.Fatal("sweep never crashed")
	}
}

// TestAuditedCrashSweepWritebackRace repeats the audited crash sweep under
// the Figure 7 race configuration, so the auditor's recovery rules see undo
// rollbacks of lines that dirty writebacks persisted early (the hard case:
// NVM sequence numbers inflated past the entries' own stores).
func TestAuditedCrashSweepWritebackRace(t *testing.T) {
	cp := compileRace(t)
	cfg := raceConfig()

	golden, err := New(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	goldenOut := golden.Output(0)
	total := golden.Instret()

	undoApplied := 0
	step := total/31 + 1
	for crashAt := uint64(1); crashAt < total; crashAt += step {
		m, err := New(cp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := audit.NewFlightRecorder(0)
		aud := audit.NewAuditor(m.AuditOptions())
		aud.AttachRecorder(rec)
		tap := audit.Tee(rec, aud)
		m.SetTap(tap)
		if err := m.RunUntil(crashAt); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			break
		}
		img, err := m.Crash()
		if err != nil {
			t.Fatal(err)
		}
		r, rep, err := RecoverOrdered(img, nil, tap)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		undoApplied += rep.UndoneApplied
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d resume: %v", crashAt, err)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("crash@%d audit: %v", crashAt, err)
		}
		if !reflect.DeepEqual(r.Output(0), goldenOut) {
			t.Fatalf("crash@%d: output %v, want %v", crashAt, r.Output(0), goldenOut)
		}
	}
	if undoApplied == 0 {
		t.Error("no undo restore applied: the audited rollback path went untested")
	}
}

// TestRedoSkippedCounter pins the SkippedInvalid plumbing: phase 2 must count
// every invalidated redo entry it skips, and the stat must reach Stats().
func TestRedoSkippedCounter(t *testing.T) {
	m, err := New(compileRace(t), raceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ScanHits+s.WindowHits == 0 {
		t.Fatal("no invalidations provoked; tighten the config")
	}
	if s.RedoSkipped == 0 {
		t.Error("entries were invalidated but RedoSkipped stayed zero")
	}
}
