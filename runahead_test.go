package capri

import (
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/workload"
)

// TestRunAheadCutsDispatches guards core-local run-ahead (DESIGN §4i): on the
// 4-thread SPLASH kernels the strict quantum has almost no slack, so without
// run-ahead the threaded core single-steps nearly every instruction
// (Steps ≈ Instret, as on the switch core). With it, register-only runs
// retire as one dispatch each. A change that silently disables run-ahead
// fails here rather than only showing up as lost simulator throughput.
func TestRunAheadCutsDispatches(t *testing.T) {
	for _, name := range []string{"fft", "water-spatial", "barnes"} {
		t.Run(name, func(t *testing.T) {
			bm, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compile.Compile(bm.Build(benchScale), compile.OptionsForLevel(compile.LevelLICM, 256))
			if err != nil {
				t.Fatal(err)
			}
			cfg := diffConfig(bm.Threads, 256, false)
			cfg.Dispatch = machine.DispatchThreaded
			m, err := machine.New(res.Program, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			s := m.Stats()
			ratio := float64(s.Steps) / float64(s.Instret)
			t.Logf("%s: %d steps / %d instret = %.2f", name, s.Steps, s.Instret, ratio)
			if ratio > 0.6 {
				t.Errorf("%s: %d steps for %d instructions (%.2f per instruction, want <= 0.60): run-ahead is not retiring core-local segments",
					name, s.Steps, s.Instret, ratio)
			}
		})
	}
}
