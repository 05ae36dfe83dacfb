package main

import (
	"capri/internal/compile"
	"capri/internal/machine"
)

// metricDef is one reported metric. For a per-layer metric, target names
// the end-to-end metrics and workloads it should move; BENCHMARK.json
// mirrors these tables (the tests hold the two equal).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of the parent's median
	target             string  // per-layer only
}

// endToEnd metrics come from the untraced run and are defined on every
// workload. Host times are process CPU time, which on a paravirtualised
// guest excludes the time a shared host steals; the run prints the wall-clock
// counterparts beside them. The simulated metrics are exact.
var endToEnd = []metricDef{
	{name: "ops_per_cpu_s", unit: "ops/cpu_s", better: "higher", bound: 0.25},
	{name: "minst_per_cpu_s", unit: "Minst/cpu_s", better: "higher", bound: 0.25},
	{name: "op_cpu_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_cpu_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_overhead_gmean", unit: "ratio", better: "lower", bound: 0.02},
	{name: "nvm_writes_per_kinst", unit: "writes/kinst", better: "lower", bound: 0.02},
}

const (
	tgtSetup   = "setup_s on every workload"
	tgtCompile = "ops_per_cpu_s and op_cpu_ms_p50 on grid, setup_s on crash; no change on suite"
	tgtNew     = "ops_per_cpu_s and op_cpu_ms_p50 on crash and grid; no change on suite"
	tgtRun     = "minst_per_cpu_s on suite, then grid"
	tgtSim     = "sim_overhead_gmean and nvm_writes_per_kinst on suite and grid"
	tgtRecover = "recover.cpu_ms_p50, ops_per_cpu_s and op_cpu_ms_p50 on crash"
	tgtAudit   = "ops_per_cpu_s on crash"
	tgtGo      = "minst_per_cpu_s and peak_rss_mb on suite"
)

// perLayer metrics come from the traced run. Host times and call counts are
// per job: the traced set-up once plus one pass over the ops. Simulated
// counts sum one pass over the ops (each op's first run).
var perLayer = func() []metricDef {
	l := []metricDef{
		{name: "workload.build.ms", unit: "ms", better: "lower", target: tgtSetup},
		{name: "compile.ms", unit: "ms", better: "lower", target: tgtCompile},
		{name: "compile.calls", unit: "count", better: "lower", target: tgtCompile},
		{name: "compile.ms_per_call", unit: "ms", better: "lower", target: tgtCompile},
	}
	for _, p := range compile.AllPassNames {
		l = append(l, metricDef{name: "compile.pass." + p + ".ms", unit: "ms", better: "lower", target: tgtCompile})
	}
	l = append(l,
		metricDef{name: "compile.verify.ms", unit: "ms", better: "lower", target: tgtCompile},
		metricDef{name: "compile.insts_out", unit: "count", better: "lower", target: tgtCompile},
		metricDef{name: "machine.new.ms", unit: "ms", better: "lower", target: tgtNew},
		metricDef{name: "machine.new.calls", unit: "count", better: "lower", target: tgtNew},
		metricDef{name: "machine.decode_blocks", unit: "count", better: "lower", target: tgtNew},
		metricDef{name: "machine.decode_hit_ratio", unit: "ratio", better: "higher", target: tgtNew},
		metricDef{name: "machine.decode_fused", unit: "count", better: "higher", target: tgtNew},
		metricDef{name: "machine.run.ms", unit: "ms", better: "lower", target: tgtRun},
		metricDef{name: "machine.run.minst_per_cpu_s", unit: "Minst/cpu_s", better: "higher", target: tgtRun},
		metricDef{name: "machine.steps", unit: "count", better: "lower", target: tgtRun},
		metricDef{name: "machine.sched_queue_ops", unit: "count", better: "lower", target: tgtRun},
		metricDef{name: "machine.quantum_grants", unit: "count", better: "higher", target: tgtRun},
		metricDef{name: "machine.quantum_aborts", unit: "count", better: "lower", target: tgtRun},
	)
	for _, c := range cpuLayerNames {
		t := tgtRun
		switch c {
		case "proxy":
			t = "minst_per_cpu_s on suite"
		case "audit":
			t = tgtAudit
		case "compile", "analysis":
			t = tgtCompile
		}
		l = append(l, metricDef{name: "cpu." + c, unit: "frac", better: "lower", target: t})
	}
	for _, p := range []struct{ name, better string }{
		{"front_allocs", "lower"}, {"front_merges", "higher"}, {"front_stalls", "lower"},
		{"boundary_entries", "lower"}, {"elided_boundaries", "higher"}, {"window_hits", "higher"},
		{"scan_hits", "higher"}, {"redo_skipped", "higher"},
	} {
		l = append(l, metricDef{name: "proxy." + p.name, unit: "count", better: p.better, target: tgtSim})
	}
	for c := machine.CycleCause(0); c < machine.NumCycleCauses; c++ {
		l = append(l, metricDef{name: "cycles." + c.String(), unit: "cycles", better: "lower", target: "sim_overhead_gmean on suite and grid"})
	}
	for _, n := range []string{"cache.l1_miss_ratio", "cache.l2_miss_ratio", "cache.dram_miss_ratio"} {
		l = append(l, metricDef{name: n, unit: "ratio", better: "lower", target: tgtSim})
	}
	for _, n := range []string{"mem.nvm_writes", "mem.nvm_word_writes", "mem.nvm_stale_skips"} {
		l = append(l, metricDef{name: n, unit: "count", better: "lower", target: tgtSim})
	}
	for _, n := range []string{"machine.crash.ms", "machine.recover.ms", "machine.resume.ms", "verify.ms"} {
		l = append(l, metricDef{name: n, unit: "ms", better: "lower", target: tgtRecover})
	}
	for _, n := range []string{"regions_redone", "entries_redone", "entries_undone", "undone_applied", "slices_executed"} {
		l = append(l, metricDef{name: "recover." + n, unit: "count", better: "lower", target: tgtRecover})
	}
	l = append(l,
		metricDef{name: "crash.vacuous", unit: "count", better: "lower", target: tgtRecover},
		metricDef{name: "recover.cpu_ms_p50", unit: "ms", better: "lower", target: "recovery latency on crash (no recovery elsewhere)"},
		metricDef{name: "recover.cpu_ms_p99", unit: "ms", better: "lower", target: "recovery tail on crash"},
		metricDef{name: "op.cpu_ms_p99", unit: "ms", better: "lower", target: "op tail on crash and grid"},
		metricDef{name: "op.self_ms", unit: "ms", better: "lower", target: "ops_per_cpu_s on every workload (the benchmark's own glue)"},
		metricDef{name: "audit.events", unit: "count", better: "lower", target: tgtAudit},
		metricDef{name: "audit.ns_per_event", unit: "ns", better: "lower", target: tgtAudit},
		metricDef{name: "go.mallocs_per_kinst", unit: "mallocs/kinst", better: "lower", target: tgtGo},
		metricDef{name: "go.alloc_bytes_per_kinst", unit: "B/kinst", better: "lower", target: tgtGo},
		metricDef{name: "go.gc_cycles", unit: "count", better: "lower", target: tgtGo},
		metricDef{name: "go.gc_pause_ms", unit: "ms", better: "lower", target: tgtGo},
		metricDef{name: "trace.overhead_frac", unit: "frac", better: "lower", target: "none: traced against untraced minst_per_cpu_s"},
		metricDef{name: "fail_frac", unit: "frac", better: "lower", target: "every metric: failed ops / attempted ops"},
	)
	return l
}()
