package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"capri/internal/compile"
	"capri/internal/figures"
	"capri/internal/workload"
)

var workloadNames = []string{"suite", "grid", "crash"}

// tinySizes keeps each workload's shape (single- and multi-threaded
// programs, corpus and contention crash targets) at a test-sized input.
func tinySizes(t *testing.T) sizes {
	t.Helper()
	var benches []workload.Benchmark
	for _, n := range []string{"vacation", "fft"} {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	return sizes{suiteScale: 1, benches: benches, corpus: 8, cores: []int{2}, trials: 2}
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 1, seconds: 50 * time.Millisecond, trace: trace, sizes: tinySizes(t), traceDir: t.TempDir()}
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d ops failed: %v", name, trace, r.failed, r.attempted, r.firstErr)
			}
			var out strings.Builder
			if err := emit(&out, cfg, r); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if res.Metrics["fail_frac"].Value != 0 {
					t.Errorf("%s: fail_frac = %v", name, res.Metrics["fail_frac"].Value)
				}
			}
			if len(res.Metrics) != len(defs) || !res.Correct {
				t.Errorf("%s trace=%v: %d metrics (want %d), correct=%v", name, trace, len(res.Metrics), len(defs), res.Correct)
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				}
			}
		}
	}
}

func TestOracleCatchesCorruptOutput(t *testing.T) {
	for _, name := range workloadNames {
		j, err := setupJob(name, nil, tinySizes(t))
		if err != nil {
			t.Fatal(err)
		}
		j.tamper = func(op int, outs [][]uint64) {
			if op == 0 {
				outs[0] = append(outs[0], 1)
			}
		}
		p := j.runPhase(nil, rand.New(rand.NewSource(1)), 0)
		if p.failed != 1 || p.attempted != len(j.ops) {
			t.Errorf("%s: %d of %d ops failed, want exactly the corrupted one", name, p.failed, p.attempted)
		}
		if p.firstErr == nil || !strings.Contains(p.firstErr.Error(), "output differs") {
			t.Errorf("%s: failure %v does not name the output", name, p.firstErr)
		}
	}
}

// The grid's cells must simulate the machine the figures plot.
func TestGridMatchesFigures(t *testing.T) {
	j, err := setupJob("grid", nil, tinySizes(t))
	if err != nil {
		t.Fatal(err)
	}
	h := figures.NewHarness(1)
	h.Parallelism = 1
	for _, b := range tinySizes(t).benches {
		for _, th := range []int{32, 1024} {
			name := b.Name + "/" + compile.LevelLICM.String() + "@" + strconv.Itoa(th)
			id := -1
			for i, o := range j.ops {
				if o.name == name {
					id = i
				}
			}
			if id < 0 {
				t.Fatalf("no grid op %s", name)
			}
			r, err := j.runOp(nil, id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := h.Run(b, compile.LevelLICM, th)
			if err != nil {
				t.Fatal(err)
			}
			if r.ratio != want.Norm {
				t.Errorf("%s: normalised cycles %v, figures %v", name, r.ratio, want.Norm)
			}
		}
	}
}

func TestDigestIndependentOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		var digests []string
		for _, seed := range []int64{1, 2} {
			j, err := setupJob(name, nil, tinySizes(t))
			if err != nil {
				t.Fatal(err)
			}
			p := j.runPhase(nil, rand.New(rand.NewSource(seed)), 0)
			if p.failed != 0 {
				t.Fatalf("%s seed %d: %v", name, seed, p.firstErr)
			}
			digests = append(digests, j.digest())
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s with seed 1, %s with seed 2", name, digests[0], digests[1])
		}
	}
}

// crashSource plus the compile must give fault.Target.Build's program and
// machine, so the crash workload runs the campaign's geometry.
func TestCrashSourceMatchesTargetBuild(t *testing.T) {
	for _, tg := range crashTargets(fullSizes()) {
		src, cfg, err := crashSource(nil, tg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, tg.Threshold))
		if err != nil {
			t.Fatal(err)
		}
		want, wantCfg, err := tg.Build()
		if err != nil {
			t.Fatal(err)
		}
		if res.Program.Fingerprint() != want.Fingerprint() || cfg != wantCfg {
			t.Errorf("%s: program or machine differs from fault.Target.Build", tg.Name())
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for i, w := range bj.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q", i, w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.begin("outer", 0)
	time.Sleep(2 * time.Millisecond)
	tr.begin("inner", 0)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	outer, inner := tr.spans[1], tr.spans[0]
	if inner.parent != outer.id {
		t.Fatalf("inner span's parent is %d, want %d", inner.parent, outer.id)
	}
	got := tr.agg["outer"].selfNS + tr.agg["inner"].selfNS
	if want := outer.end - outer.start; got != want {
		t.Errorf("self times sum to %d ns, outer span lasts %d ns", got, want)
	}
	if err := tr.writeChrome(t.TempDir()+"/t.json", map[string]any{}); err != nil {
		t.Fatal(err)
	}
}

var sink uint64

func TestParseCPUProfile(t *testing.T) {
	for fn, layer := range map[string]string{
		"capri/internal/machine.(*Machine).service": "machine",
		"capri/internal/proxy.(*Path).DeliverEach":  "proxy",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"main.main": "other",
	} {
		if got := layerOf(fn); got != layer {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, layer)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	j, err := setupJob("suite", nil, tinySizes(t))
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		r, err := j.runOp(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink += r.instret()
	}
	pprof.StopCPUProfile()
	split, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if split.samples == 0 || split.periodNS == 0 {
		t.Fatalf("profile has %d samples, period %d ns", split.samples, split.periodNS)
	}
	sum := int64(0)
	for _, n := range split.leaf {
		sum += n
	}
	if sum != split.samples || split.leaf["machine"] == 0 {
		t.Errorf("leaf split %v does not cover %d samples or misses the machine", split.leaf, split.samples)
	}
}
