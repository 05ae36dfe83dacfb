package main

import "testing"

func figWith(name string, rates ...float64) figure {
	f := figure{Figure: name}
	for _, r := range rates {
		f.Samples = append(f.Samples, sample{SimInstPerSec: r})
	}
	if len(rates) > 0 {
		f.SimInstPerSec = rates[0]
	}
	return f
}

func reportWith(figs ...figure) *report {
	return &report{Schema: "capri/bench-sim/v5", Scale: 1, Jobs: 1, Figures: figs}
}

func findRow(t *testing.T, rows []row, name string) row {
	t.Helper()
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no row for %s in %+v", name, rows)
	return row{}
}

func TestCompareReportsSignificantRegression(t *testing.T) {
	old := reportWith(figWith("fig8", 100, 101, 99, 100, 102))
	new := reportWith(figWith("fig8", 80, 81, 79, 80, 82))
	rows := compareReports(old, new, 0.01)
	r := findRow(t, rows, "fig8")
	if !r.regressed {
		t.Errorf("clean 20%% slowdown must gate: %+v", r)
	}
	// The reverse direction is an improvement, never a gate failure.
	rows = compareReports(new, old, 0.01)
	r = findRow(t, rows, "fig8")
	if r.regressed || r.verdict != "improved" {
		t.Errorf("speedup flagged as regression: %+v", r)
	}
}

func TestCompareReportsNoiseNotSignificant(t *testing.T) {
	old := reportWith(figWith("fig8", 100, 104, 96, 101, 99))
	new := reportWith(figWith("fig8", 98, 103, 95, 102, 100))
	rows := compareReports(old, new, 0.01)
	if r := findRow(t, rows, "fig8"); r.regressed {
		t.Errorf("overlapping noise must not gate: %+v", r)
	}
}

func TestCompareReportsSignificantButTiny(t *testing.T) {
	// A perfectly clean 0.5% slowdown is significant by rank but below
	// min-delta — not worth gating on.
	old := reportWith(figWith("fig8", 1000, 1001, 1002, 1003, 1004))
	new := reportWith(figWith("fig8", 995, 996, 997, 998, 999))
	rows := compareReports(old, new, 0.01)
	if r := findRow(t, rows, "fig8"); r.regressed {
		t.Errorf("sub-min-delta change must not gate: %+v", r)
	}
}

func TestCompareReportsPointFallback(t *testing.T) {
	// v4-style reports: no samples array, single figure rate.
	old := reportWith(figure{Figure: "fig8", SimInstPerSec: 100})
	new := reportWith(figure{Figure: "fig8", SimInstPerSec: 92})
	rows := compareReports(old, new, 0.01)
	r := findRow(t, rows, "fig8")
	if !r.c.Fallback {
		t.Fatalf("sample-less reports must use the point fallback: %+v", r)
	}
	if r.regressed {
		t.Errorf("8%% point drop is inside the 10%% cliff: %+v", r)
	}
	new = reportWith(figure{Figure: "fig8", SimInstPerSec: 85})
	rows = compareReports(old, new, 0.01)
	if r := findRow(t, rows, "fig8"); !r.regressed {
		t.Errorf("15%% point drop must trip the fallback cliff: %+v", r)
	}
}

func TestCompareReportsSkipsSilentFigures(t *testing.T) {
	// Replay-only figures (rate 0 everywhere) and degenerate samples carry
	// no signal and must not produce rows.
	old := reportWith(figure{Figure: "fig10"}, figWith("fig8", 100, 101, 99, 100))
	deg := figure{Figure: "fig8", Samples: []sample{{SimInstPerSec: 0, Degenerate: true}}, Degenerate: true}
	new := reportWith(figure{Figure: "fig10"}, deg)
	rows := compareReports(old, new, 0.01)
	if len(rows) != 0 {
		t.Errorf("signal-free figures produced rows: %+v", rows)
	}
}

func TestCompareReportsRefFig8(t *testing.T) {
	oldRef := figWith("fig8-refstore", 50, 51, 49, 50, 52)
	newRef := figWith("fig8-refstore", 40, 41, 39, 40, 42)
	old := reportWith()
	old.RefFig8 = &oldRef
	new := reportWith()
	new.RefFig8 = &newRef
	rows := compareReports(old, new, 0.01)
	if r := findRow(t, rows, "fig8-refstore"); !r.regressed {
		t.Errorf("ref_fig8 regression missed: %+v", r)
	}
}

func TestComparable(t *testing.T) {
	a := reportWith()
	b := reportWith()
	if reason, ok := comparable(a, b); !ok {
		t.Errorf("identical shapes not comparable: %s", reason)
	}
	b.Scale = 2
	if _, ok := comparable(a, b); ok {
		t.Errorf("scale mismatch must not be comparable")
	}
	b.Scale = 1
	b.Jobs = 4
	if _, ok := comparable(a, b); ok {
		t.Errorf("jobs mismatch must not be comparable")
	}
}

func TestComparableRefusesOversubscribedHost(t *testing.T) {
	a, b := reportWith(), reportWith()
	a.Jobs, b.Jobs = 4, 4
	a.Host = &host{NumCPU: 4}
	b.Host = &host{NumCPU: 4}
	if reason, ok := comparable(a, b); !ok {
		t.Fatalf("jobs == num_cpu must stay comparable: %s", reason)
	}
	b.Host = &host{NumCPU: 1}
	reason, ok := comparable(a, b)
	if ok {
		t.Fatal("new report with jobs 4 on a 1-CPU host must not be gated")
	}
	if want := "new report ran jobs 4 on a 1-CPU host"; reason != want {
		t.Errorf("reason = %q, want %q", reason, want)
	}
	a.Host, b.Host = &host{NumCPU: 2}, &host{NumCPU: 8}
	if reason, _ := comparable(a, b); reason != "old report ran jobs 4 on a 2-CPU host" {
		t.Errorf("oversubscribed old report: reason = %q", reason)
	}
	// Reports without a host fingerprint (pre-v5) cannot be checked.
	a.Host, b.Host = nil, nil
	if _, ok := comparable(a, b); !ok {
		t.Error("reports without host fingerprints must stay comparable")
	}
}

func TestPointFallbackFewSamples(t *testing.T) {
	// Three samples per side cannot reach significance — must fall back,
	// and only the cliff gates.
	old := reportWith(figWith("fig8", 100, 101, 99))
	new := reportWith(figWith("fig8", 95, 96, 94))
	rows := compareReports(old, new, 0.01)
	r := findRow(t, rows, "fig8")
	if !r.c.Fallback {
		t.Fatalf("3v3 samples must use the point fallback: %+v", r)
	}
	if r.regressed {
		t.Errorf("5%% drop inside the 10%% cliff must not gate: %+v", r)
	}
}
