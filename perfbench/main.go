// Command perfbench is the repository's benchmark. It times the two jobs
// users of this reproduction run — regenerating the paper's figure grid and
// sweeping crash/recovery — plus steady-state simulation of the benchmark
// suite, end to end (untraced) or layer by layer (traced).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload suite|grid|crash --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"capri/internal/compile"
	"capri/internal/machine"
)

// setupReps is how many times the untraced run sets the workload up; it
// reports the median as setup_s.
const setupReps = 5

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sizes    sizes
	traceDir string // traced runs write their Chrome trace here
}

// phase is one timed closed loop: one client, one op in flight, whole passes
// over the job's ops in seeded random orders until the time is spent.
type phase struct {
	passes      []pass
	elapsed     time.Duration
	attempted   int
	failed      int
	firstErr    error
	instret     uint64
	latMS       []float64 // wall time of each op
	cpuMS       []float64 // CPU time of each op
	recoverMS   []float64 // CPU time of each recovery
	maxInFlight int
}

// pass is one pass over every op of a job.
type pass struct {
	wallS, cpuS float64
	ops         int
	inst        uint64
}

// runPhase runs whole passes until the next one would end further from
// target than stopping now, and always at least one.
func (j *job) runPhase(tr *tracer, rng *rand.Rand, target time.Duration) phase {
	var p phase
	for start := time.Now(); !spent(time.Since(start), len(p.passes), target); {
		j.runPass(tr, rng, &p)
	}
	return p
}

// spent reports whether n units of work taking elapsed in all have used up
// target: whether one more unit would end further from it than stopping.
func spent(elapsed time.Duration, n int, target time.Duration) bool {
	return n > 0 && elapsed+elapsed/time.Duration(2*n) >= target
}

// runPass runs every op once, in a seeded random order, one at a time.
func (j *job) runPass(tr *tracer, rng *rand.Rand, p *phase) {
	ps := pass{ops: len(j.ops)}
	passStart, passCPU := time.Now(), cpuNS()
	inFlight := 0
	for _, id := range rng.Perm(len(j.ops)) {
		inFlight++
		p.maxInFlight = max(p.maxInFlight, inFlight)
		t0, cpu0 := time.Now(), cpuNS()
		r, err := j.runOp(tr, id)
		lat, cpu := time.Since(t0), cpuNS()-cpu0
		inFlight--
		p.attempted++
		p.latMS = append(p.latMS, float64(lat)/1e6)
		p.cpuMS = append(p.cpuMS, float64(cpu)/1e6)
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
			continue
		}
		ps.inst += r.instret()
		if r.report != nil {
			p.recoverMS = append(p.recoverMS, float64(r.recoverCPU)/1e6)
		}
	}
	wall := time.Since(passStart)
	ps.wallS = wall.Seconds()
	ps.cpuS = float64(cpuNS()-passCPU) / 1e9
	p.passes = append(p.passes, ps)
	p.instret += ps.inst
	p.elapsed += wall
}

// each returns f of every pass.
func (p phase) each(f func(pass) float64) []float64 {
	xs := make([]float64, len(p.passes))
	for i, ps := range p.passes {
		xs[i] = f(ps)
	}
	return xs
}

// perPass returns the median over passes of f. The host's speed drifts
// over seconds, so a median of pass rates repeats better than the mean.
func (p phase) perPass(f func(pass) float64) float64 { return percentile(p.each(f), 0.5) }

func opsPerCPUS(ps pass) float64   { return float64(ps.ops) / ps.cpuS }
func minstPerCPUS(ps pass) float64 { return float64(ps.inst) / 1e6 / ps.cpuS }
func opsPerS(ps pass) float64      { return float64(ps.ops) / ps.wallS }
func minstPerS(ps pass) float64    { return float64(ps.inst) / 1e6 / ps.wallS }
func wallS(ps pass) float64        { return ps.wallS }

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	digest            string
	firstErr          error
	notes             []string // printed before the JSON line
}

// setUp builds the job: program build, compiles and reference runs, plus a
// warm-up run of the first op. It returns the CPU and wall seconds taken.
func setUp(cfg runConfig, tr *tracer) (j *job, cpuS, wallS float64, err error) {
	t0, cpu0 := time.Now(), cpuNS()
	tr.begin(spanSetup, -1)
	defer tr.end()
	if j, err = setupJob(cfg.workload, tr, cfg.sizes); err != nil {
		return nil, 0, 0, err
	}
	if _, err := j.runOp(tr, 0); err != nil {
		return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	return j, float64(cpuNS()-cpu0) / 1e9, time.Since(t0).Seconds(), nil
}

// hostCheck refuses a report whose ops overlapped on fewer CPUs than ops.
func hostCheck(ps ...phase) error {
	for _, p := range ps {
		if p.maxInFlight > runtime.NumCPU() {
			return fmt.Errorf("%d ops ran at once on %d CPUs: timings would measure OS scheduling", p.maxInFlight, runtime.NumCPU())
		}
	}
	return nil
}

func hostNote(p phase) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s dispatch=threaded clients=1 max_in_flight=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), p.maxInFlight)
}

func pctNote(name string, xs []float64, q float64) string {
	beyond := int(float64(len(xs)) * (1 - q))
	return fmt.Sprintf("%s = %.4g ms (n=%d, %d beyond)", name, percentile(xs, q), len(xs), beyond)
}

// wallNote reports the wall-clock counterparts of the CPU-time metrics.
func wallNote(p phase) string {
	return fmt.Sprintf("wall: ops_per_s=%.4g minst_per_s=%.4g op_ms_p50=%.4g op_ms_p90=%.4g cpu/wall=%.3f",
		p.perPass(opsPerS), p.perPass(minstPerS), percentile(p.latMS, 0.5), percentile(p.latMS, 0.9),
		p.perPass(func(ps pass) float64 { return ps.cpuS / ps.wallS }))
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg runConfig) (*report, error) {
	var j *job
	var setupCPU, setupWall []float64
	for i := 0; i < setupReps; i++ {
		var c, w float64
		var err error
		if j, c, w, err = setUp(cfg, nil); err != nil {
			return nil, err
		}
		setupCPU, setupWall = append(setupCPU, c), append(setupWall, w)
		// Collect each discarded job now, so peak RSS does not depend on
		// when the collector would have got to it.
		runtime.GC()
	}
	p := j.runPhase(nil, rand.New(rand.NewSource(cfg.seed)), cfg.seconds)
	if err := hostCheck(p); err != nil {
		return nil, err
	}
	sim := j.simTotals()
	r := &report{
		attempted: p.attempted, failed: p.failed, firstErr: p.firstErr, digest: j.digest(),
		metrics: map[string]float64{
			"ops_per_cpu_s":        p.perPass(opsPerCPUS),
			"minst_per_cpu_s":      p.perPass(minstPerCPUS),
			"op_cpu_ms_p50":        percentile(p.cpuMS, 0.5),
			"op_cpu_ms_p90":        percentile(p.cpuMS, 0.9),
			"peak_rss_mb":          peakRSSMiB(),
			"setup_s":              percentile(setupCPU, 0.5),
			"sim_overhead_gmean":   sim.gmean,
			"nvm_writes_per_kinst": div(float64(sim.capri.NVMWrites)*1000, float64(sim.capri.Instret)),
		},
	}
	r.notes = append(r.notes, hostNote(p),
		fmt.Sprintf("timed: passes=%d ops_per_pass=%d elapsed_s=%.3f", len(p.passes), len(j.ops), p.elapsed.Seconds()),
		fmt.Sprintf("set-up: cpu_s=%.4g wall_s=%.4g", setupCPU, setupWall),
		pctNote("op_cpu_ms_p50", p.cpuMS, 0.5), pctNote("op_cpu_ms_p90", p.cpuMS, 0.9),
		wallNote(p),
		fmt.Sprintf("pass wall_s: %.4g", p.each(wallS)),
		fmt.Sprintf("sim_overhead_gmean over %d ops with a reference run", sim.ratios))
	return r, nil
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct{ mallocs, bytes, gcs, pauseNS float64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) add(e memDelta) {
	d.mallocs += e.mallocs
	d.bytes += e.bytes
	d.gcs += e.gcs
	d.pauseNS += e.pauseNS
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		mallocs: float64(b.Mallocs - a.Mallocs),
		bytes:   float64(b.TotalAlloc - a.TotalAlloc),
		gcs:     float64(b.NumGC - a.NumGC),
		pauseNS: float64(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// runTraced measures the per-layer metrics: one traced set-up, then
// passes that alternate between untraced (the base for the tracing overhead,
// the Go runtime counters and the latency tails) and traced with the CPU
// profiler on. Alternating keeps both sides in the same stretch of host
// time, whose speed drifts.
func runTraced(cfg runConfig) (*report, error) {
	tr := newTracer()
	j, _, _, err := setUp(cfg, tr)
	if err != nil {
		return nil, err
	}
	setupTot := tr.totals()
	rng := rand.New(rand.NewSource(cfg.seed))

	var (
		a, b  phase
		mem   memDelta
		split = cpuSplit{leaf: map[string]int64{}, incl: map[string]int64{}}
		prof  bytes.Buffer
	)
	runtime.GC()
	for start := time.Now(); !spent(time.Since(start), len(b.passes), cfg.seconds); {
		m0 := readMem()
		j.runPass(nil, rng, &a)
		mem.add(memSince(m0))

		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		j.runPass(tr, rng, &b)
		pprof.StopCPUProfile()
		s, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		split.add(s)
	}
	if err := hostCheck(a, b); err != nil {
		return nil, err
	}
	lt := perJob(setupTot, tr.totals(), len(b.passes))
	sim := j.simTotals()
	ms := func(span string) float64 { return float64(lt.selfNS[span]) / 1e6 }
	traced := func(count string) float64 { return tr.counts[count] - setupTot.counts[count] }

	m := map[string]float64{
		"workload.build.ms":           ms(spanBuild),
		"compile.ms":                  ms(spanCompile),
		"compile.calls":               float64(lt.calls[spanCompile]),
		"compile.ms_per_call":         div(ms(spanCompile), float64(lt.calls[spanCompile])),
		"compile.verify.ms":           lt.counts["compile.verify.ms"],
		"compile.insts_out":           lt.counts["compile.insts_out"],
		"machine.new.ms":              ms(spanNew),
		"machine.new.calls":           float64(lt.calls[spanNew]),
		"machine.decode_blocks":       float64(sim.all.DecodeBlocks),
		"machine.decode_hit_ratio":    div(float64(sim.all.DecodeHits), float64(sim.all.DecodeHits+sim.all.DecodeBlocks)),
		"machine.decode_fused":        float64(sim.all.DecodeFused),
		"machine.run.ms":              ms(spanRun),
		"machine.run.minst_per_cpu_s": div(traced("run.inst")/1e6, traced("run.cpu_ns")/1e9),
		"machine.steps":               float64(sim.all.Steps),
		"machine.sched_queue_ops":     float64(sim.all.SchedQueueOps),
		"machine.quantum_grants":      float64(sim.all.QuantumGrants),
		"machine.quantum_aborts":      float64(sim.all.QuantumAborts),
		"proxy.front_allocs":          float64(sim.capri.FrontAllocs),
		"proxy.front_merges":          float64(sim.capri.FrontMerges),
		"proxy.front_stalls":          float64(sim.capri.FrontStalls),
		"proxy.boundary_entries":      float64(sim.capri.BoundaryEntries),
		"proxy.elided_boundaries":     float64(sim.capri.ElidedBds),
		"proxy.window_hits":           float64(sim.capri.WindowHits),
		"proxy.scan_hits":             float64(sim.capri.ScanHits),
		"proxy.redo_skipped":          float64(sim.capri.RedoSkipped),
		"cache.l1_miss_ratio":         div(float64(sim.all.L1Misses), float64(sim.all.L1Hits+sim.all.L1Misses)),
		"cache.l2_miss_ratio":         div(float64(sim.all.L2Misses), float64(sim.all.L2Hits+sim.all.L2Misses)),
		"cache.dram_miss_ratio":       div(float64(sim.all.DRAMMisses), float64(sim.all.DRAMHits+sim.all.DRAMMisses)),
		"mem.nvm_writes":              float64(sim.capri.NVMWrites),
		"mem.nvm_word_writes":         float64(sim.capri.NVMWordWrites),
		"mem.nvm_stale_skips":         float64(sim.capri.NVMStaleSkips),
		"machine.crash.ms":            ms(spanCrash),
		"machine.recover.ms":          ms(spanRecover),
		"machine.resume.ms":           ms(spanResume),
		"verify.ms":                   ms(spanVerify),
		"recover.regions_redone":      float64(sim.report.RegionsRedone),
		"recover.entries_redone":      float64(sim.report.EntriesRedone),
		"recover.entries_undone":      float64(sim.report.EntriesUndone),
		"recover.undone_applied":      float64(sim.report.UndoneApplied),
		"recover.slices_executed":     float64(sim.report.SlicesExecuted),
		"crash.vacuous":               float64(sim.vacuous),
		"recover.cpu_ms_p50":          percentile(a.recoverMS, 0.5),
		"recover.cpu_ms_p99":          percentile(a.recoverMS, 0.99),
		"op.cpu_ms_p99":               percentile(a.cpuMS, 0.99),
		"op.self_ms":                  ms(spanOp),
		"audit.events":                float64(sim.auditEvents),
		"audit.ns_per_event":          div(float64(split.incl["audit"]*split.periodNS), traced("audit.events")),
		"go.mallocs_per_kinst":        div(mem.mallocs*1000, float64(a.instret)),
		"go.alloc_bytes_per_kinst":    div(mem.bytes*1000, float64(a.instret)),
		"go.gc_cycles":                mem.gcs / float64(len(a.passes)),
		"go.gc_pause_ms":              mem.pauseNS / 1e6 / float64(len(a.passes)),
		"trace.overhead_frac":         1 - div(b.perPass(minstPerCPUS), a.perPass(minstPerCPUS)),
		"fail_frac":                   div(float64(a.failed+b.failed), float64(a.attempted+b.attempted)),
	}
	for _, p := range compile.AllPassNames {
		m["compile.pass."+p+".ms"] = lt.counts["compile.pass."+p+".ms"]
	}
	for c, n := range sim.capri.CycleBy {
		m["cycles."+machine.CycleCause(c).String()] = float64(n)
	}
	for _, c := range cpuLayerNames {
		m["cpu."+c] = split.share(c)
	}

	r := &report{attempted: a.attempted + b.attempted, failed: a.failed + b.failed, metrics: m, digest: j.digest()}
	r.firstErr = a.firstErr
	if r.firstErr == nil {
		r.firstErr = b.firstErr
	}
	meta := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "dispatch": "threaded",
	}
	tracePath := filepath.Join(cfg.traceDir, fmt.Sprintf("perfbench-%s-%d.trace.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(tracePath, meta); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	r.notes = append(r.notes, hostNote(b),
		fmt.Sprintf("untraced passes=%d elapsed_s=%.3f; traced passes=%d elapsed_s=%.3f; cpu samples=%d",
			len(a.passes), a.elapsed.Seconds(), len(b.passes), b.elapsed.Seconds(), split.samples),
		pctNote("op.cpu_ms_p99", a.cpuMS, 0.99), pctNote("recover.cpu_ms_p50", a.recoverMS, 0.5), pctNote("recover.cpu_ms_p99", a.recoverMS, 0.99),
		wallNote(a),
		fmt.Sprintf("chrome trace: %s (%d spans, %d dropped)", tracePath, len(tr.spans), tr.dropped))
	for _, d := range perLayer {
		r.notes = append(r.notes, fmt.Sprintf("layer %-28s %14.6g %-13s -> %s", d.name, m[d.name], d.unit, d.target))
	}
	return r, nil
}

// output is the JSON line the benchmark ends with.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the notes, one line per metric, the digest, and the JSON line.
func emit(w io.Writer, cfg runConfig, r *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%v trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if !cfg.trace {
		for _, d := range defs {
			fmt.Fprintf(w, "metric %-22s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	fmt.Fprintf(w, "simulated-state digest: %s\n", r.digest)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func run(cfg runConfig) (*report, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

func main() {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite, grid or crash")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the op order")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build", "directory for the Chrome trace of a traced run")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME --seed N --seconds S>=1 --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.sizes = fullSizes()
	r, err := run(cfg)
	if err == nil {
		err = emit(os.Stdout, cfg, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
