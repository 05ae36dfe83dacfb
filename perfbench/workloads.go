package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/fault"
	"capri/internal/figures"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/recovery"
	"capri/internal/workload"
)

// sizes fixes each workload's input set. The seed never changes it: it
// only orders the ops, so every seed simulates the same states.
type sizes struct {
	suiteScale int                  // suite: trip-count scale (1 = figure scale)
	benches    []workload.Benchmark // suite and grid programs
	corpus     int                  // crash: progen corpus programs
	cores      []int                // crash: contention workloads at these core counts
	trials     int                  // crash: crash points per target
}

// fullSizes are the benchmark's inputs. The suite runs at three times
// figure scale, where steady-state simulation dominates its ops (compile
// time does not grow with scale and is a few percent of a suite op); the
// grid is the figures' own scale; the crash corpus is the fault campaign's.
func fullSizes() sizes {
	return sizes{suiteScale: 3, benches: workload.All(), corpus: 104, cores: []int{2, 4}, trials: 8}
}

// Store thresholds of Fig. 8 (at LevelLICM) and the threshold of Fig. 9 (at
// every level): the grid's cells.
var (
	gridThresholds = figures.Fig8Thresholds
	gridLevels     = compile.Levels
)

// job is one workload after set-up: a fixed list of ops, each of which is
// one closed-loop operation of the benchmark.
type job struct {
	name string
	ops  []op
	// seen holds each op's first successful result; later runs of the same
	// op must reproduce its simulated state exactly.
	seen []*opResult
	// tamper, when set, alters an op's outputs before they are checked. The
	// tests use it to prove the oracle catches a wrong output.
	tamper func(op int, outs [][]uint64)
}

type op struct {
	name string
	run  func(tr *tracer, id int) (opResult, error)
}

// opResult is what one op simulated.
type opResult struct {
	capri, base []machine.Stats // every machine the op ran, by kind
	compile     *compile.Stats
	report      *machine.RecoveryReport
	vacuous     bool    // crash: the program finished before the crash point
	ratio       float64 // simulated cycles / reference cycles; 0: no reference
	recoverCPU  int64   // crash: RecoverInstrumented CPU time, ns
	auditEvents uint64
	sum         [sha256.Size]byte
}

func (r *opResult) instret() (n uint64) {
	for _, s := range r.capri {
		n += s.Instret
	}
	for _, s := range r.base {
		n += s.Instret
	}
	return n
}

// simOnly strips the counters that describe the simulator rather than the
// simulated machine: decode-cache and scheduler counters.
func simOnly(ss []machine.Stats) []machine.Stats {
	out := slices.Clone(ss)
	for i := range out {
		s := &out[i]
		s.Steps, s.SchedQueueOps, s.QuantumGrants, s.QuantumAborts = 0, 0, 0, 0
		s.DecodeBlocks, s.DecodeHits, s.DecodeFused = 0, 0, 0
	}
	return out
}

// digest hashes the op's simulated state with host-only fields stripped.
func (r *opResult) digest() ([sha256.Size]byte, error) {
	v := struct {
		Capri, Base []machine.Stats
		Compile     *compile.Stats
		Report      *machine.RecoveryReport
		Vacuous     bool
	}{simOnly(r.capri), simOnly(r.base), nil, r.report, r.vacuous}
	if r.compile != nil {
		cs := r.compile.StripTimings()
		v.Compile = &cs
	}
	raw, err := json.Marshal(v)
	return sha256.Sum256(raw), err
}

// runOp runs one op and checks that its simulated state matches the op's
// first run.
func (j *job) runOp(tr *tracer, id int) (*opResult, error) {
	tr.begin(spanOp, id)
	defer tr.end()
	r, err := j.ops[id].run(tr, id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.ops[id].name, err)
	}
	if r.sum, err = r.digest(); err != nil {
		return nil, fmt.Errorf("%s: digest: %w", j.ops[id].name, err)
	}
	if prev := j.seen[id]; prev == nil {
		j.seen[id] = &r
	} else if prev.sum != r.sum {
		return nil, fmt.Errorf("%s: simulated state differs from the op's first run", j.ops[id].name)
	}
	return &r, nil
}

// digest hashes every op's first-run digest in op order, so it does not
// depend on the order the seed ran them in.
func (j *job) digest() string {
	h := sha256.New()
	for _, r := range j.seen {
		if r == nil {
			h.Write([]byte("missing"))
			continue
		}
		h.Write(r.sum[:])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// simTotals sums the simulated counters of every op's first run.
type simTotals struct {
	capri, all  machine.Stats // summed (CycleBy summed per cause)
	gmean       float64
	ratios      int
	vacuous     int
	auditEvents uint64
	report      machine.RecoveryReport
}

func addStats(dst *machine.Stats, s machine.Stats) {
	dst.Cycles += s.Cycles
	dst.Instret += s.Instret
	dst.Steps += s.Steps
	for i, c := range s.CycleBy {
		dst.CycleBy[i] += c
	}
	dst.NVMWrites += s.NVMWrites
	dst.NVMWordWrites += s.NVMWordWrites
	dst.NVMStaleSkips += s.NVMStaleSkips
	dst.FrontAllocs += s.FrontAllocs
	dst.FrontMerges += s.FrontMerges
	dst.FrontStalls += s.FrontStalls
	dst.BoundaryEntries += s.BoundaryEntries
	dst.ElidedBds += s.ElidedBds
	dst.ScanHits += s.ScanHits
	dst.WindowHits += s.WindowHits
	dst.RedoSkipped += s.RedoSkipped
	dst.DecodeBlocks += s.DecodeBlocks
	dst.DecodeHits += s.DecodeHits
	dst.DecodeFused += s.DecodeFused
	dst.QuantumGrants += s.QuantumGrants
	dst.QuantumAborts += s.QuantumAborts
	dst.SchedQueueOps += s.SchedQueueOps
	dst.L1Hits += s.L1Hits
	dst.L1Misses += s.L1Misses
	dst.L2Hits += s.L2Hits
	dst.L2Misses += s.L2Misses
	dst.DRAMHits += s.DRAMHits
	dst.DRAMMisses += s.DRAMMisses
}

func (j *job) simTotals() simTotals {
	var t simTotals
	logSum := 0.0
	for _, r := range j.seen {
		if r == nil {
			continue
		}
		for _, s := range r.capri {
			addStats(&t.capri, s)
			addStats(&t.all, s)
		}
		for _, s := range r.base {
			addStats(&t.all, s)
		}
		if r.ratio > 0 {
			logSum += math.Log(r.ratio)
			t.ratios++
		}
		if r.vacuous {
			t.vacuous++
		}
		t.auditEvents += r.auditEvents
		if rep := r.report; rep != nil {
			t.report.RegionsRedone += rep.RegionsRedone
			t.report.EntriesRedone += rep.EntriesRedone
			t.report.EntriesUndone += rep.EntriesUndone
			t.report.UndoneApplied += rep.UndoneApplied
			t.report.SlicesExecuted += rep.SlicesExecuted
		}
	}
	if t.ratios > 0 {
		t.gmean = math.Exp(logSum / float64(t.ratios))
	}
	return t
}

// checkOutputs compares a finished machine's per-thread outputs with the
// reference outputs.
func (j *job) checkOutputs(id int, m *machine.Machine, want [][]uint64) error {
	got := make([][]uint64, len(want))
	for t := range want {
		got[t] = slices.Clone(m.Output(t))
	}
	if j.tamper != nil {
		j.tamper(id, got)
	}
	for t := range want {
		if !slices.Equal(got[t], want[t]) {
			return fmt.Errorf("thread %d output differs from the reference (%d values, want %d)", t, len(got[t]), len(want[t]))
		}
	}
	return nil
}

func outputsOf(m *machine.Machine, threads int) [][]uint64 {
	out := make([][]uint64, threads)
	for t := range out {
		out[t] = slices.Clone(m.Output(t))
	}
	return out
}

// Traced calls into the program's modules.

func build(tr *tracer, b workload.Benchmark, scale int) *prog.Program {
	tr.begin(spanBuild, -1)
	defer tr.end()
	return b.Build(scale)
}

func compileProg(tr *tracer, opID int, src *prog.Program, opts compile.Options) (*compile.Result, error) {
	tr.begin(spanCompile, opID)
	res, err := compile.Compile(src, opts)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if tr != nil {
		for _, ps := range res.Stats.Passes {
			tr.count("compile.pass."+ps.Name+".ms", float64(ps.WallNS)/1e6)
			tr.count("compile.verify.ms", float64(ps.VerifyNS)/1e6)
		}
		tr.count("compile.insts_out", float64(res.Stats.Static.Insts))
	}
	return res, nil
}

func newMachine(tr *tracer, opID int, p *prog.Program, cfg machine.Config) (*machine.Machine, error) {
	tr.begin(spanNew, opID)
	defer tr.end()
	m, err := machine.New(p, cfg)
	if err != nil {
		return nil, fmt.Errorf("machine.New: %w", err)
	}
	return m, nil
}

// runMachine runs m to completion (until 0) or to the crash point, timing
// the call's CPU as well when traced.
func runMachine(tr *tracer, name string, opID int, m *machine.Machine, until uint64) error {
	tr.begin(name, opID)
	var cpu0 int64
	inst0 := m.Instret()
	if tr != nil {
		cpu0 = cpuNS()
	}
	var err error
	if until == 0 {
		err = m.Run()
	} else {
		err = m.RunUntil(until)
	}
	if tr != nil {
		tr.count("run.cpu_ns", float64(cpuNS()-cpu0))
		tr.count("run.inst", float64(m.Instret()-inst0))
	}
	tr.end()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// figureConfig is the figure harness's machine for a benchmark
// (figures.Harness): Table 1 with the L2 and DRAM cache scaled down to the
// synthetic working sets, and one core per thread beyond the default eight.
func figureConfig(threads, threshold int, capri bool) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Dispatch = machine.DispatchThreaded
	cfg.Capri = capri
	if capri {
		cfg.Threshold = threshold
	}
	if threads > cfg.Cores {
		cfg.Cores = threads
	}
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	return cfg
}

func setupJob(name string, tr *tracer, sz sizes) (*job, error) {
	var j *job
	var err error
	switch name {
	case "suite":
		j = setupSuite(tr, sz)
	case "grid":
		j, err = setupGrid(tr, sz)
	case "crash":
		j, err = setupCrash(tr, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want suite, grid or crash)", name)
	}
	if err != nil {
		return nil, err
	}
	j.seen = make([]*opResult, len(j.ops))
	return j, nil
}

// setupSuite: one op per paper benchmark — compile at the default options,
// run on the Capri machine, run the uncompiled program on the volatile
// baseline, and compare the two machines' outputs.
func setupSuite(tr *tracer, sz sizes) *job {
	j := &job{name: "suite"}
	for _, b := range sz.benches {
		src := build(tr, b, sz.suiteScale)
		threads := src.NumThreads()
		capriCfg := figureConfig(b.Threads, compile.DefaultThreshold, true)
		baseCfg := figureConfig(b.Threads, 0, false)
		j.ops = append(j.ops, op{name: b.Name, run: func(tr *tracer, id int) (opResult, error) {
			var r opResult
			res, err := compileProg(tr, id, src, compile.DefaultOptions())
			if err != nil {
				return r, err
			}
			r.compile = &res.Stats
			m, err := newMachine(tr, id, res.Program, capriCfg)
			if err != nil {
				return r, err
			}
			if err := runMachine(tr, spanRun, id, m, 0); err != nil {
				return r, err
			}
			bm, err := newMachine(tr, id, src, baseCfg)
			if err != nil {
				return r, err
			}
			if err := runMachine(tr, spanRun, id, bm, 0); err != nil {
				return r, err
			}
			tr.begin(spanVerify, id)
			defer tr.end()
			r.capri, r.base = []machine.Stats{m.Stats()}, []machine.Stats{bm.Stats()}
			r.ratio = float64(m.Cycles()) / float64(bm.Cycles())
			return r, j.checkOutputs(id, m, outputsOf(bm, threads))
		}})
	}
	return j
}

// baseRef is a benchmark's baseline run, taken once in set-up.
type baseRef struct {
	outputs [][]uint64
	cycles  uint64
}

// setupGrid: one op per cell of Figs. 8 and 9 — compile at the cell's level
// and threshold, run on the Capri machine, compare outputs with the baseline
// reference — plus one baseline run per benchmark, checked against the
// reference taken in set-up.
func setupGrid(tr *tracer, sz sizes) (*job, error) {
	j := &job{name: "grid"}
	for _, b := range sz.benches {
		src := build(tr, b, 1)
		threads := src.NumThreads()
		baseCfg := figureConfig(b.Threads, 0, false)
		bm, err := newMachine(tr, -1, src, baseCfg)
		if err != nil {
			return nil, err
		}
		if err := runMachine(tr, spanRun, -1, bm, 0); err != nil {
			return nil, fmt.Errorf("%s baseline: %w", b.Name, err)
		}
		ref := baseRef{outputs: outputsOf(bm, threads), cycles: bm.Cycles()}

		cell := func(level compile.Level, th int) op {
			cfg := figureConfig(b.Threads, th, true)
			opts := compile.OptionsForLevel(level, th)
			return op{name: fmt.Sprintf("%s/%s@%d", b.Name, level, th), run: func(tr *tracer, id int) (opResult, error) {
				var r opResult
				res, err := compileProg(tr, id, src, opts)
				if err != nil {
					return r, err
				}
				r.compile = &res.Stats
				m, err := newMachine(tr, id, res.Program, cfg)
				if err != nil {
					return r, err
				}
				if err := runMachine(tr, spanRun, id, m, 0); err != nil {
					return r, err
				}
				tr.begin(spanVerify, id)
				defer tr.end()
				r.capri = []machine.Stats{m.Stats()}
				r.ratio = float64(m.Cycles()) / float64(ref.cycles)
				return r, j.checkOutputs(id, m, ref.outputs)
			}}
		}
		for _, th := range gridThresholds {
			j.ops = append(j.ops, cell(compile.LevelLICM, th))
		}
		for _, l := range gridLevels {
			if l != compile.LevelLICM || !slices.Contains(gridThresholds, compile.DefaultThreshold) {
				j.ops = append(j.ops, cell(l, compile.DefaultThreshold))
			}
		}
		j.ops = append(j.ops, op{name: b.Name + "/baseline", run: func(tr *tracer, id int) (opResult, error) {
			var r opResult
			m, err := newMachine(tr, id, src, baseCfg)
			if err != nil {
				return r, err
			}
			if err := runMachine(tr, spanRun, id, m, 0); err != nil {
				return r, err
			}
			tr.begin(spanVerify, id)
			defer tr.end()
			r.base = []machine.Stats{m.Stats()}
			if m.Cycles() != ref.cycles {
				return r, fmt.Errorf("baseline cycles %d, reference %d", m.Cycles(), ref.cycles)
			}
			return r, j.checkOutputs(id, m, ref.outputs)
		}})
	}
	return j, nil
}

// crashTargets is the fault campaign's corpus plus its contention
// workloads.
func crashTargets(sz sizes) []fault.Target {
	targets := fault.CorpusTargets(sz.corpus, 64)
	if len(sz.cores) > 0 {
		targets = append(targets, fault.ContentionTargets(1, 64, sz.cores...)...)
	}
	return targets
}

// crashSource builds a crash target's source program and machine
// configuration exactly as fault.Target.Build does (the tests hold the two
// equal), leaving the compile to the caller so it is timed on its own.
func crashSource(tr *tracer, t fault.Target) (*prog.Program, machine.Config, error) {
	cfg := machine.DefaultConfig()
	cfg.Dispatch = machine.DispatchThreaded
	cfg.Threshold = t.Threshold
	var src *prog.Program
	if t.Bench != "" {
		b, err := workload.ByName(t.Bench)
		if err != nil {
			return nil, cfg, err
		}
		src = build(tr, b, t.Scale)
		cfg.L1Size = 4 << 10
		cfg.L2Size = 64 << 10
		cfg.DRAMSize = 1 << 20
	} else {
		tr.begin(spanBuild, -1)
		src = progen.Generate(t.ProgenSeed, fault.CorpusShapes[t.ProgenShape%len(fault.CorpusShapes)])
		tr.end()
		cfg.L1Size, cfg.L1Ways = 256, 1
		cfg.L2Size, cfg.L2Ways = 512, 1
		cfg.DRAMSize = 1 << 14
	}
	if t.Cores > 0 {
		cfg.Cores = t.Cores
	}
	if n := src.NumThreads(); n > cfg.Cores {
		cfg.Cores = n
	}
	return src, cfg, nil
}

// crashPoint picks trial k's crash point in [1, instret): stratified over
// the run so each target's points cover it, jittered by a fixed hash so the
// points do not sit on a regular grid.
func crashPoint(target, k, trials int, instret uint64) uint64 {
	if instret < 2 {
		return 1
	}
	span := instret - 1
	lo := span * uint64(k) / uint64(trials)
	hi := span * uint64(k+1) / uint64(trials)
	x := uint64(target)<<20 | uint64(k)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if hi > lo {
		lo += x % (hi - lo)
	}
	return 1 + lo
}

// setupCrash: compile every target, take its golden run, and make one op
// per (target, crash point): run to the point under the auditor, crash,
// recover with the auditor attached, resume, and verify.
func setupCrash(tr *tracer, sz sizes) (*job, error) {
	j := &job{name: "crash"}
	for ti, t := range crashTargets(sz) {
		src, cfg, err := crashSource(tr, t)
		if err != nil {
			return nil, err
		}
		res, err := compileProg(tr, -1, src, compile.OptionsForLevel(compile.LevelLICM, t.Threshold))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name(), err)
		}
		p := res.Program
		tr.begin(spanGolden, -1)
		g, err := recovery.RunGolden(p, cfg)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("%s golden: %w", t.Name(), err)
		}
		var check func(*machine.Machine) error
		if t.Bench != "" {
			b, err := workload.ByName(t.Bench)
			if err != nil {
				return nil, err
			}
			if b.Check != nil {
				check = func(m *machine.Machine) error { return b.Check(t.Scale, m.MemSnapshot()) }
			}
		}
		for k := 0; k < sz.trials; k++ {
			at := crashPoint(ti, k, sz.trials, g.Instret)
			j.ops = append(j.ops, op{
				name: fmt.Sprintf("%s@%d", t.Name(), at),
				run: func(tr *tracer, id int) (opResult, error) {
					return j.trial(tr, id, p, cfg, g, at, check)
				},
			})
		}
	}
	return j, nil
}

// trial is one crash op. Verification takes one memory snapshot.
func (j *job) trial(tr *tracer, id int, p *prog.Program, cfg machine.Config, g *recovery.Golden, at uint64, check func(*machine.Machine) error) (opResult, error) {
	var r opResult
	m, err := newMachine(tr, id, p, cfg)
	if err != nil {
		return r, err
	}
	aud := audit.NewAuditor(m.AuditOptions())
	m.SetTap(aud)
	if err := runMachine(tr, spanRun, id, m, at); err != nil {
		return r, err
	}
	fin := m
	pre := m.Stats()
	r.capri = []machine.Stats{pre}
	if m.Done() {
		r.vacuous = true
	} else {
		tr.begin(spanCrash, id)
		img, err := m.Crash()
		tr.end()
		if err != nil {
			return r, fmt.Errorf("crash: %w", err)
		}
		tr.begin(spanRecover, id)
		cpu0 := cpuNS()
		rm, rep, err := machine.RecoverInstrumented(img, nil, aud)
		r.recoverCPU = cpuNS() - cpu0
		tr.end()
		if err != nil {
			return r, fmt.Errorf("recover: %w", err)
		}
		r.report = rep
		if err := runMachine(tr, spanResume, id, rm, 0); err != nil {
			return r, err
		}
		fin = rm
		post := rm.Stats()
		r.capri = append(r.capri, post)
		r.ratio = float64(pre.Cycles+post.Cycles) / float64(g.Cycles)
	}
	tr.begin(spanVerify, id)
	defer tr.end()
	r.auditEvents = aud.EventsAudited()
	tr.count("audit.events", float64(r.auditEvents))
	if err := aud.Err(); err != nil {
		return r, err
	}
	if r.report != nil && r.report.ConflictingUndo != 0 {
		return r, fmt.Errorf("%d conflicting cross-core undo entries", r.report.ConflictingUndo)
	}
	if check != nil {
		// Contention outputs depend on the interleaving: check the
		// workload's invariants and exactly-once output counts instead.
		if err := check(fin); err != nil {
			return r, err
		}
		for t := range g.Outputs {
			if got, want := len(fin.Output(t)), len(g.Outputs[t]); got != want {
				return r, fmt.Errorf("thread %d emitted %d values, golden %d", t, got, want)
			}
		}
		return r, nil
	}
	if err := j.checkOutputs(id, fin, g.Outputs); err != nil {
		return r, err
	}
	snap := fin.MemSnapshot()
	for a, v := range g.Mem {
		if got := snap[a]; got != v {
			return r, fmt.Errorf("mem[%#x] = %d, golden %d", a, got, v)
		}
	}
	return r, nil
}
