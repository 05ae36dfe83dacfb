package machine

import (
	"fmt"
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/isa"
	"capri/internal/prog"
)

// genLikeProgram builds a modest branchy/loopy program inline (the machine
// package cannot import progen — progen depends on machine), so the
// convergence invariant gets a richer subject than sumProgram.
func genLikeProgram() *prog.Program {
	bd := prog.NewBuilder("branchy")
	f := bd.Func("main")
	entry := f.Block()
	oHdr := f.Block()
	oBody := f.Block()
	thenB := f.Block()
	elseB := f.Block()
	join := f.Block()
	iHdr := f.Block()
	iBody := f.Block()
	oLatch := f.Block()
	exit := f.Block()

	const (
		rI    = isa.Reg(8)
		rJ    = isa.Reg(9)
		rN    = isa.Reg(10)
		rM    = isa.Reg(11)
		rBase = isa.Reg(12)
		rV    = isa.Reg(13)
		rOff  = isa.Reg(14)
		rTwo  = isa.Reg(15)
	)

	f.SetBlock(entry)
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(rI, 0)
	f.MovI(rN, 40)
	f.MovI(rM, 5)
	f.MovI(rBase, int64(HeapBase))
	f.MovI(rV, 3)
	f.MovI(rTwo, 2)
	f.Br(oHdr)

	f.SetBlock(oHdr)
	f.BrIf(rI, isa.CondGE, rN, exit, oBody)

	f.SetBlock(oBody)
	f.Op3(isa.OpRem, rOff, rI, rTwo)
	f.BrIf(rOff, isa.CondEQ, rTwo, thenB, elseB) // never eq: always else
	f.SetBlock(thenB)
	f.MulI(rV, rV, 5)
	f.Br(join)
	f.SetBlock(elseB)
	f.AddI(rV, rV, 11)
	f.Store(rBase, 0, rV)
	f.Br(join)

	f.SetBlock(join)
	f.MovI(rJ, 0)
	f.Br(iHdr)
	f.SetBlock(iHdr)
	f.BrIf(rJ, isa.CondGE, rM, oLatch, iBody)
	f.SetBlock(iBody)
	f.OpI(isa.OpShlI, rOff, rJ, 3)
	f.Add(rOff, rOff, rBase)
	f.Store(rOff, 64, rV)
	f.AddI(rJ, rJ, 1)
	f.Br(iHdr)

	f.SetBlock(oLatch)
	f.AddI(rI, rI, 1)
	f.Br(oHdr)

	f.SetBlock(exit)
	f.Emit(rV)
	f.Halt()
	bd.SetThreadEntries(f)
	return bd.Program()
}

// TestQuiesceConvergence: after Run (which quiesces the proxy machinery),
// the persisted NVM image must equal the architectural memory for every
// touched word — whole-system persistence at completion, on a branchy
// program and across thresholds.
func TestQuiesceConvergence(t *testing.T) {
	src := genLikeProgram()
	for _, th := range []int{4, 16, 64, 256} {
		opts := compile.DefaultOptions()
		opts.Threshold = th
		res, err := compile.Compile(src, opts)
		if err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		m, _ := New(res.Program, testConfig(th))
		if err := m.Run(); err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		memImg := m.MemSnapshot()
		nvmImg := m.NVMSnapshot()
		for a, v := range memImg {
			if nvmImg[a] != v {
				t.Errorf("th=%d: nvm[%#x]=%d mem=%d", th, a, nvmImg[a], v)
			}
		}
		// And nothing extra in NVM that memory doesn't have.
		for a, v := range nvmImg {
			if v != 0 && memImg[a] != v {
				t.Errorf("th=%d: stray nvm[%#x]=%d", th, a, v)
			}
		}
	}
}

// TestBackpressureNeverDeadlocks: a pathological configuration (the
// smallest legal front-end, tiny back-end via threshold 2, slow path) must
// still complete — backpressure stalls, never wedges.
func TestBackpressureNeverDeadlocks(t *testing.T) {
	src := genLikeProgram()
	opts := compile.DefaultOptions()
	opts.Threshold = 2
	res, err := compile.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.FrontEndEntries = 2
	cfg.ProxyLatency = 500
	cfg.ProxyInterval = 50
	cfg.MaxSteps = 20_000_000
	m, _ := New(res.Program, cfg)
	if err := m.Run(); err != nil {
		t.Fatalf("deadlock or budget blowout: %v", err)
	}
	if s := m.Stats(); s.FrontStalls == 0 {
		t.Error("pathological config produced no stalls — backpressure untested")
	}
}

// TestFrontEndNeedsTwoSlots pins the sync two-slot requirement: a sync
// store waits until the front-end holds its data entry and commit marker
// together, so a one-entry front-end would stall it forever. Validate must
// refuse that configuration for Capri machines (a volatile baseline has no
// front-end), and the smallest legal front-end must carry a lock-heavy
// two-thread program on the tiny-cache, slow-path geometry to completion.
func TestFrontEndNeedsTwoSlots(t *testing.T) {
	cfg := testConfig(64)
	cfg.FrontEndEntries = 1
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "commit marker") {
		t.Fatalf("one-entry front-end: Validate = %v, want the sync two-slot error", err)
	}
	if _, err := New(sumProgram(10), cfg); err == nil {
		t.Fatal("New accepted a one-entry front-end")
	}
	cfg.Capri = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("baseline machine rejected for its unused front-end size: %v", err)
	}

	p := compileFor(t, lockedCounter(2, 40), 64)
	cfg = testConfig(64)
	cfg.FrontEndEntries = 2
	cfg.L1Size, cfg.L1Ways = 256, 1
	cfg.L2Size, cfg.L2Ways = 512, 1
	cfg.ProxyInterval = 16
	cfg.MaxSteps = 2_000_000
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("two-entry front-end: %v", err)
	}
	if got, want := m.MemSnapshot()[HeapBase+8], uint64(2*40); got != want {
		t.Fatalf("two-entry front-end: counter = %d, want %d", got, want)
	}
}

// lockedCounter builds a program in which each of threads workers bumps a
// shared counter at HeapBase+8 n times under the spin lock at HeapBase.
func lockedCounter(threads int, n int64) *prog.Program {
	bd := prog.NewBuilder("locked")
	var entries []*prog.FuncBuilder
	for w := 0; w < threads; w++ {
		f := bd.Func(fmt.Sprintf("worker%d", w))
		entry, header, body, exit := f.Block(), f.Block(), f.Block(), f.Block()
		f.SetBlock(entry)
		f.MovI(isa.SP, int64(StackBase(w)))
		f.MovI(0, 0)
		f.MovI(1, n)
		f.MovI(2, int64(HeapBase))
		f.Br(header)
		f.SetBlock(header)
		f.BrIf(0, isa.CondGE, 1, exit, body)
		f.SetBlock(body)
		f.Lock(2, 0)
		f.Load(3, 2, 8)
		f.AddI(3, 3, 1)
		f.Store(2, 8, 3)
		f.Unlock(2, 0)
		f.AddI(0, 0, 1)
		f.Br(header)
		f.SetBlock(exit)
		f.Halt()
		entries = append(entries, f)
	}
	bd.SetThreadEntries(entries...)
	return bd.Program()
}

// TestDebugPC sanity-checks the debug accessors used by the validation
// harness.
func TestDebugPC(t *testing.T) {
	cp := compileFor(t, sumProgram(10), 16)
	m, _ := New(cp, testConfig(16))
	fn, blk, idx := m.DebugPC(0)
	if fn != 0 || blk != cp.Funcs[0].Entry || idx != 0 {
		t.Errorf("initial PC = (%d,%d,%d)", fn, blk, idx)
	}
	if err := m.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	_, _, idx2 := m.DebugPC(0)
	if idx2 == 0 {
		t.Error("PC did not advance")
	}
}

// TestSchedulerPicksLaggard: with two threads of very different speeds, the
// min-cycle scheduler must keep both progressing (the slow one is always
// picked when behind), so completion requires both halting.
func TestSchedulerPicksLaggard(t *testing.T) {
	bd := prog.NewBuilder("two")
	short := bd.Func("short")
	short.Block()
	short.MovI(isa.SP, int64(StackBase(0)))
	short.MovI(8, 1)
	short.Emit(8)
	short.Halt()

	long := bd.Func("long")
	e := long.Block()
	h := long.Block()
	b := long.Block()
	x := long.Block()
	long.SetBlock(e)
	long.MovI(isa.SP, int64(StackBase(1)))
	long.MovI(8, 0)
	long.MovI(9, 500)
	long.Br(h)
	long.SetBlock(h)
	long.BrIf(8, isa.CondGE, 9, x, b)
	long.SetBlock(b)
	long.AddI(8, 8, 1)
	long.Br(h)
	long.SetBlock(x)
	long.Emit(8)
	long.Halt()
	bd.SetThreadEntries(short, long)

	cp := compileFor(t, bd.Program(), 32)
	m, _ := New(cp, testConfig(32))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Done() {
		t.Fatal("not done")
	}
	if got := m.Output(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("short thread output = %v", got)
	}
	if got := m.Output(1); len(got) != 1 || got[0] != 500 {
		t.Errorf("long thread output = %v", got)
	}
}
