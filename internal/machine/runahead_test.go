package machine

import (
	"reflect"
	"testing"

	"capri/internal/audit"
	"capri/internal/isa"
	"capri/internal/prog"
)

// Line addresses of the writeback-stamp program: core 1 dirties lineA, core 0
// parks a dirty lineB in the one-line L2 and later stores to lineA.
const (
	lineA = HeapBase
	lineB = HeapBase + 1<<12
	lineC = HeapBase + 2<<12
)

// stampProgram builds the two-thread program behind
// TestRunAheadWritebackStamp. Core 1 dirties lineA, idles long enough for its
// proxy path to go quiet, then runs a 240-op ALU segment closed by a branch.
// Core 0 evicts a dirty lineB into the L2 (via lineC), spins `delay` loop
// iterations, and stores to lineA: the invalidation writes core 1's dirty
// copy back into the one-line L2, whose dirty lineB victim reaches the memory
// controller stamped with core 1's cycle.
func stampProgram(delay int64) *prog.Program {
	bd := prog.NewBuilder("stamp")
	const (
		rA, rB, rC = isa.Reg(1), isa.Reg(2), isa.Reg(3)
		rV, rI, rN = isa.Reg(4), isa.Reg(5), isa.Reg(6)
		rX         = isa.Reg(7)
	)

	t0 := bd.Func("t0")
	entry, header, body, exit := t0.Block(), t0.Block(), t0.Block(), t0.Block()
	t0.SetBlock(entry)
	t0.MovI(rA, int64(lineA))
	t0.MovI(rB, int64(lineB))
	t0.MovI(rC, int64(lineC))
	t0.MovI(rV, 5)
	t0.MovI(rI, 0)
	t0.MovI(rN, delay)
	t0.Store(rB, 0, rV)
	t0.Store(rC, 0, rV)
	t0.Br(header)
	t0.SetBlock(header)
	t0.BrIf(rI, isa.CondGE, rN, exit, body)
	t0.SetBlock(body)
	t0.AddI(rI, rI, 1)
	t0.AddI(rX, rX, 3)
	t0.Br(header)
	t0.SetBlock(exit)
	t0.Store(rA, 0, rV)
	t0.Halt()

	t1 := bd.Func("t1")
	entry, wait, seg, exit := t1.Block(), t1.Block(), t1.Block(), t1.Block()
	t1.SetBlock(entry)
	t1.MovI(rA, int64(lineA))
	t1.MovI(rV, 7)
	t1.Store(rA, 0, rV)
	t1.Br(wait)
	t1.SetBlock(wait)
	for i := 0; i < 30; i++ {
		t1.MulI(rX, rX, 3)
	}
	t1.Br(seg)
	t1.SetBlock(seg)
	for i := 0; i < 240; i++ {
		t1.AddI(rX, rX, 1)
	}
	t1.Br(exit)
	t1.SetBlock(exit)
	t1.Halt()

	bd.SetThreadEntries(t0, t1)
	return bd.Program()
}

// stampProbe chains the audit stream's digest and counts controller
// writebacks stamped with a cycle no core shows on the host: on the switch
// core every stamp is the running core's or an exact victim's cycle, so a
// non-zero count means a stamp was reconstructed for a core that ran ahead.
type stampProbe struct {
	rec           *audit.FlightRecorder
	m             *Machine
	reconstructed int
}

func (p *stampProbe) Tap(e audit.Event) {
	p.rec.Tap(e)
	if e.Kind != audit.EvWriteback {
		return
	}
	for _, c := range p.m.cores {
		if c.cycle == e.Cycle {
			return
		}
	}
	p.reconstructed++
}

// TestRunAheadWritebackStamp pins the one cross-core read of a run-ahead
// core's cycle: a store invalidating the dirty L1 line of a core that is
// ahead of the strict schedule must stamp the writeback with the cycle the
// strict schedule shows, not the ahead core's host cycle. Core 0's store
// sweeps across core 1's segment; every delay must leave the threaded core
// indistinguishable from the switch core (images, ledger, audit digest), and
// some delay must exercise the reconstruction.
func TestRunAheadWritebackStamp(t *testing.T) {
	cfg := testConfig(64)
	cfg.L1Size, cfg.L1Ways = 64, 1
	cfg.L2Size, cfg.L2Ways = 64, 1
	cfg.DRAMSize = 1 << 14

	type outcome struct {
		cycles uint64
		mem    map[uint64]uint64
		nvm    map[uint64]uint64
		ledger [NumCycleCauses]uint64
		digest [32]byte
		events uint64
	}
	run := func(p *prog.Program, mode DispatchMode) (outcome, int) {
		t.Helper()
		cfg.Dispatch = mode
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := &stampProbe{rec: audit.NewFlightRecorder(1), m: m}
		m.SetTap(probe)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return outcome{
			cycles: m.Cycles(), mem: m.MemSnapshot(), nvm: m.NVMSnapshot(),
			ledger: m.Stats().CycleBy, digest: probe.rec.Digest(), events: probe.rec.Total(),
		}, probe.reconstructed
	}

	fired := 0
	for delay := int64(0); delay <= 90; delay += 3 {
		p := stampProgram(delay)
		th, thStamps := run(p, DispatchThreaded)
		sw, swStamps := run(p, DispatchSwitch)
		if !reflect.DeepEqual(th, sw) {
			t.Fatalf("delay %d: threaded diverges from switch:\n  threaded cycles %d ledger %v events %d digest %x\n  switch   cycles %d ledger %v events %d digest %x",
				delay, th.cycles, th.ledger, th.events, th.digest, sw.cycles, sw.ledger, sw.events, sw.digest)
		}
		if swStamps != 0 {
			t.Fatalf("delay %d: switch core stamped %d writebacks with no core's cycle", delay, swStamps)
		}
		fired += thStamps
	}
	t.Logf("%d writebacks stamped for a core running ahead", fired)
	if fired == 0 {
		t.Fatal("no writeback was stamped for a core running ahead: the test no longer exercises the reconstruction")
	}
}

// TestSegmentTable pins the packed segment table: the minimum length of two,
// the closing-branch bit, the summed cost without the branch, and the
// 255-op cap, past which a segment loses its branch.
func TestSegmentTable(t *testing.T) {
	alu := isa.Inst{Op: isa.OpAddI}
	mul := isa.Inst{Op: isa.OpMulI}
	load := isa.Inst{Op: isa.OpLoad}
	br := isa.Inst{Op: isa.OpBr}
	unpack := func(e uint32) (n int, br bool, cost uint64) {
		return int(e & segLenMask), e&segBr != 0, uint64(e >> segCostShift)
	}

	// load, mul, alu, alu, br, alu, load
	seg := segments([]isa.Inst{load, mul, alu, alu, br, alu, load})
	want := []struct {
		n    int
		br   bool
		cost uint64
	}{{0, false, 0}, {3, true, costMul + 2*costALU}, {2, true, 2 * costALU}, {0, false, 0}, {0, false, 0}, {0, false, 0}, {0, false, 0}}
	for i, w := range want {
		if n, b, c := unpack(seg[i]); n != w.n || b != w.br || c != w.cost {
			t.Errorf("index %d: segment (%d ops, branch %v, cost %d), want (%d, %v, %d)", i, n, b, c, w.n, w.br, w.cost)
		}
	}

	long := make([]isa.Inst, 300, 301)
	for i := range long {
		long[i] = alu
	}
	seg = segments(append(long, br))
	for _, tc := range []struct {
		idx, n int
		br     bool
	}{{0, 255, false}, {44, 255, false}, {45, 255, true}, {298, 2, true}, {299, 0, false}} {
		if n, b, c := unpack(seg[tc.idx]); n != tc.n || b != tc.br || c != uint64(tc.n)*costALU {
			t.Errorf("long block index %d: segment (%d ops, branch %v, cost %d), want (%d, %v, %d)", tc.idx, n, b, c, tc.n, tc.br, tc.n*costALU)
		}
	}
}
