// Command capristat compares two capri/bench-sim perf reports with a
// variance-aware, benchstat-style test: for every figure present in both
// reports it runs the Mann-Whitney U rank test over the per-sample
// simulated-throughput arrays (schema v5, `capribench -perf -samples N`)
// and reports the median ± MAD of each side, the relative delta, the
// p-value, and a verdict. A difference counts only when it is both
// statistically significant (p < 0.05) and large enough to matter
// (default 1%) — one lucky or unlucky run can no longer pass or fail the
// gate.
//
// Usage:
//
//	capristat old.json new.json          # print the comparison table
//	capristat -gate old.json new.json    # exit non-zero on a significant regression
//	capristat -gate -min-delta 0.02 old.json new.json
//
// Reports without samples arrays (schema <= v4, or -samples 1) fall back
// per figure to the single-sample 10% point comparison the old
// `-perfgate` applied — documented fallback, not the methodology.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"capri/internal/stats"
)

// pointTolerance is the fractional regression the single-sample fallback
// tolerates — the old `-perfgate` cliff, kept only for reports that
// carry no samples array.
const pointTolerance = 0.10

// figure is the slice of the perf report's per-figure JSON capristat
// consumes. The JSON names are the cross-tool contract with capribench;
// fields the comparison does not need are ignored by the decoder.
type figure struct {
	Figure        string   `json:"figure"`
	InstPerSec    float64  `json:"inst_per_sec"`
	SimInstPerSec float64  `json:"sim_inst_per_sec"`
	Degenerate    bool     `json:"degenerate"`
	Samples       []sample `json:"samples"`
}

// sample is one -samples N measurement of a figure.
type sample struct {
	SimInstPerSec float64 `json:"sim_inst_per_sec"`
	Degenerate    bool    `json:"degenerate"`
}

// host is the report's machine fingerprint.
type host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname"`
}

// report is the slice of capri/bench-sim/v* capristat consumes.
type report struct {
	Schema   string   `json:"schema"`
	Scale    int      `json:"scale"`
	Dispatch string   `json:"dispatch"`
	Jobs     int      `json:"jobs"`
	Samples  int      `json:"samples"`
	Host     *host    `json:"host"`
	Figures  []figure `json:"figures"`
	RefFig8  *figure  `json:"ref_fig8"`
}

// load reads and decodes one report.
func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// rates extracts a figure's usable throughput samples: every
// non-degenerate positive per-sample rate, or the figure's own rate as a
// single point for reports without samples arrays. The wall-derived rate
// backs up pre-v3 reports that never recorded a simulated-only rate.
func rates(f figure) []float64 {
	var out []float64
	for _, s := range f.Samples {
		if !s.Degenerate && s.SimInstPerSec > 0 {
			out = append(out, s.SimInstPerSec)
		}
	}
	if len(out) > 0 {
		return out
	}
	if !f.Degenerate {
		if f.SimInstPerSec > 0 {
			return []float64{f.SimInstPerSec}
		}
		if f.InstPerSec > 0 {
			return []float64{f.InstPerSec}
		}
	}
	return nil
}

// row is one figure's comparison outcome.
type row struct {
	name       string
	c          stats.Comparison
	oldN, newN int
	regressed  bool
	verdict    string
}

// compareReports compares every figure present in both reports (plus the
// ref_fig8 series) and returns the per-figure rows in new-report order.
// minDelta is the relative slowdown below which even a statistically
// significant difference is not gated on.
func compareReports(old, new *report, minDelta float64) []row {
	figuresOf := func(r *report) []figure {
		fs := append([]figure(nil), r.Figures...)
		if r.RefFig8 != nil {
			fs = append(fs, *r.RefFig8)
		}
		return fs
	}
	oldBy := map[string]figure{}
	for _, f := range figuresOf(old) {
		oldBy[f.Figure] = f
	}
	var rows []row
	for _, nf := range figuresOf(new) {
		of, ok := oldBy[nf.Figure]
		if !ok {
			continue
		}
		os, ns := rates(of), rates(nf)
		if len(os) == 0 || len(ns) == 0 {
			continue // no timing signal on one side (replays, degenerate)
		}
		r := row{name: nf.Figure, oldN: len(os), newN: len(ns)}
		r.c = stats.CompareRates(os, ns)
		switch {
		case r.c.Fallback:
			// Single-sample fallback: the old 10% point cliff.
			if r.c.NewMedian < r.c.OldMedian*(1-pointTolerance) {
				r.regressed = true
				r.verdict = "REGRESSED (point fallback)"
			} else {
				r.verdict = "~ (point fallback)"
			}
		case r.c.Significant && r.c.Delta < -minDelta:
			r.regressed = true
			r.verdict = "REGRESSED"
		case r.c.Significant && r.c.Delta > minDelta:
			r.verdict = "improved"
		default:
			r.verdict = "~"
		}
		rows = append(rows, r)
	}
	return rows
}

// comparable reports whether two reports' rates may be compared at all:
// same scale, dispatch core, and worker count (the same skips the old
// gate applied), and neither report oversubscribed its host. A report run
// with more workers than host CPUs sums wall time across machines that
// were time-sliced against each other, so its rates measure the OS
// scheduler as much as the simulator.
func comparable(old, new *report) (string, bool) {
	for _, r := range []struct {
		side string
		rep  *report
	}{{"old", old}, {"new", new}} {
		if h := r.rep.Host; h != nil && h.NumCPU > 0 && r.rep.Jobs > h.NumCPU {
			return fmt.Sprintf("%s report ran jobs %d on a %d-CPU host", r.side, r.rep.Jobs, h.NumCPU), false
		}
	}
	if old.Scale != new.Scale {
		return fmt.Sprintf("scale %d != %d", old.Scale, new.Scale), false
	}
	if old.Dispatch != "" && new.Dispatch != "" && old.Dispatch != new.Dispatch {
		return fmt.Sprintf("dispatch %q != %q", old.Dispatch, new.Dispatch), false
	}
	if oj, nj := max(old.Jobs, 1), max(new.Jobs, 1); oj != nj {
		return fmt.Sprintf("jobs %d != %d", oj, nj), false
	}
	return "", true
}

func main() {
	var (
		gate     = flag.Bool("gate", false, "exit non-zero when any figure shows a statistically significant regression")
		minDelta = flag.Float64("min-delta", 0.01, "smallest relative slowdown worth gating on, even when statistically significant")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: capristat [-gate] [-min-delta F] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	fail(err)
	new, err := load(flag.Arg(1))
	fail(err)

	if reason, ok := comparable(old, new); !ok {
		fmt.Printf("capristat: reports not comparable (%s); nothing gated\n", reason)
		return
	}
	if old.Host != nil && new.Host != nil && *old.Host != *new.Host {
		fmt.Printf("note: host fingerprints differ (%+v vs %+v) — rates may not be comparable\n",
			*old.Host, *new.Host)
	}

	rows := compareReports(old, new, *minDelta)
	if len(rows) == 0 {
		fmt.Println("capristat: no figure with timing signal on both sides")
		return
	}
	fmt.Printf("%-18s %22s %22s %8s %8s  %s\n", "figure", "old sim inst/s", "new sim inst/s", "delta", "p", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Printf("%-18s %12.0f ±%8.0f %12.0f ±%8.0f %+7.1f%% %8.3f  %s (n=%d vs %d)\n",
			r.name, r.c.OldMedian, r.c.OldMAD, r.c.NewMedian, r.c.NewMAD,
			100*r.c.Delta, r.c.P, r.verdict, r.oldN, r.newN)
		regressed = regressed || r.regressed
	}
	if regressed {
		if *gate {
			fail(fmt.Errorf("capristat: statistically significant regression (alpha %.2g, min delta %.0f%%)",
				stats.CompareAlpha, 100**minDelta))
		}
		fmt.Println("capristat: regression detected (not gating without -gate)")
	}
}

// fail exits with an error message when err is non-nil.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
