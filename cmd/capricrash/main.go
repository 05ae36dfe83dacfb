// Command capricrash runs a crash-injection campaign: it executes a
// benchmark to completion for the golden state, then crashes fresh runs at a
// sweep of instruction counts, recovers each with the §5.4 protocol, resumes,
// and checks that every recovered run reproduces the golden output exactly.
//
// Usage:
//
//	capricrash -bench genome -points 25 -threshold 64 [-scale 1]
//	capricrash -bench genome -audit              # Fig. 7 auditor on every run
//	capricrash -bench genome -audit -record-out crash.json
//	capricrash -fuzz 100 [-threads 2]   # random-program campaign
//	capricrash -campaign -seed 1 -trials 3 -corpus 12 -benches
//	capricrash -campaign -cores 2,4,8            # add cross-core contention targets
//	capricrash -plan fault-plan-min.json         # replay one fault plan
//
// With -audit, every crashed run is observed end-to-end (run → crash →
// recovery replay → resumption) by the online Fig. 7 invariant auditor; any
// violation fails the campaign with the offending per-line event chain. With
// -record-out, the capri/run-record/v1 provenance record of the first
// violating run — or, if the sweep is clean, the last crash point — is
// written for offline inspection with capriinspect.
//
// With -campaign, the hardware fault model of DESIGN.md §4f is driven by
// seeded random fault plans (torn NVM line writes at the power failure,
// nested crashes during recovery, transient drain write errors) over the
// synthetic fault workloads, a slice of the progen corpus, and optionally all
// paper benchmarks. Every failure is shrunk to a minimal reproducible plan
// (written to -plan-out) that -plan replays exactly.
//
// With -cores, the campaign additionally targets the cross-core contention
// workloads (shared counters, the MPMC persistent queue, lock-protected
// records) at each listed core geometry, with crash points landing inside
// atomic two-phase commits and mid-drain; outside -campaign a single core
// count overrides the sweep machine's geometry.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
	"capri/internal/recovery"
	"capri/internal/telemetry"
	"capri/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "genome", "benchmark to crash (see capricc -list)")
		threshold = flag.Int("threshold", 64, "region store threshold")
		points    = flag.Int("points", 25, "number of crash points to sweep")
		scale     = flag.Int("scale", 1, "workload scale factor")
		fuzz      = flag.Int("fuzz", 0, "instead of a benchmark, validate N random generated programs")
		threads   = flag.Int("threads", 1, "threads for generated programs (with -fuzz)")
		barriers  = flag.Bool("barriers", false, "generate SPMD programs with barrier episodes (with -fuzz)")
		seed      = flag.Uint64("seed", 1, "starting seed for -fuzz")
		auditRun  = flag.Bool("audit", false, "attach the online Fig. 7 invariant auditor to every crashed run")
		recordOut = flag.String("record-out", "", "write the capri/run-record/v1 record of the first violating (else last) crash run")

		campaign  = flag.Bool("campaign", false, "run a seeded hardware-fault campaign (torn writes, nested crashes, drain errors)")
		trials    = flag.Int("trials", 3, "fault plans per target (with -campaign)")
		maxFaults = flag.Int("max-faults", 3, "max faults per plan (with -campaign)")
		corpus    = flag.Int("corpus", 12, "progen corpus programs to target (with -campaign)")
		benches   = flag.Bool("benches", false, "include all paper benchmarks as campaign targets (with -campaign)")
		coreList  = flag.String("cores", "", "comma-separated core counts (e.g. 2,4,8): with -campaign adds the cross-core contention workloads at those geometries; otherwise a single count overrides the sweep machine")
		duration  = flag.Duration("duration", 0, "stop starting new campaign targets after this long (with -campaign; 0 = no budget)")
		planOut   = flag.String("plan-out", "", "where -campaign writes the minimal failing fault plan (default fault-plan-min.json)")
		planIn    = flag.String("plan", "", "replay one capri/fault-plan/v1 JSON fault plan and exit")
		jobs      = flag.Int("jobs", 1, "campaign targets to run in parallel (with -campaign; 0 = GOMAXPROCS)")
		storeDir  = flag.String("store", "", "content-addressed result store `dir` (with -campaign); stored target outcomes replay instead of re-running")
		listen    = flag.String("listen", "", "serve live OpenMetrics telemetry on this `addr` (e.g. :9090) while the command runs")
		hbOut     = flag.String("heartbeat-out", "", "append JSONL telemetry heartbeats to this `file` (\"-\" = stderr)")
		hbEvery   = flag.Duration("heartbeat-interval", time.Second, "heartbeat sampling interval (with -heartbeat-out)")
	)
	flag.Parse()

	bus, err := telemetry.Start(telemetry.Options{
		Listen:        *listen,
		HeartbeatPath: *hbOut,
		Interval:      *hbEvery,
	})
	if err != nil {
		fatal(err)
	}
	defer bus.Stop()
	if addr := bus.Addr(); addr != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving OpenMetrics on http://%s/metrics\n", addr)
	}

	cores, err := parseCores(*coreList)
	if err != nil {
		fatal(err)
	}

	if *planIn != "" {
		runPlanReplay(*planIn, *recordOut)
		return
	}
	if *campaign {
		runCampaign(*seed, *trials, *maxFaults, *corpus, *threshold, *scale, *jobs,
			*benches, cores, *duration, *planOut, *recordOut, *storeDir)
		return
	}

	if *fuzz > 0 {
		runFuzz(*fuzz, *seed, *threads, *threshold, *points, *barriers, *auditRun)
		return
	}

	b, err := workload.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	src := b.Build(*scale)
	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, *threshold))
	if err != nil {
		fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threshold = *threshold
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	if len(cores) > 1 {
		fatal(fmt.Errorf("-cores outside -campaign takes a single core count, got %q", *coreList))
	}
	if len(cores) == 1 {
		cfg.Cores = cores[0]
	}
	if n := src.NumThreads(); cfg.Cores < n {
		cfg.Cores = n
	}

	fmt.Printf("golden run of %s ...\n", b.Name)
	golden, err := machine.New(res.Program, cfg)
	if err != nil {
		fatal(err)
	}
	if err := golden.Run(); err != nil {
		fatal(err)
	}
	var goldenOut [][]uint64
	for t := 0; t < src.NumThreads(); t++ {
		goldenOut = append(goldenOut, golden.Output(t))
	}
	total := golden.Instret()
	fmt.Printf("golden: %d instructions, %d cycles\n", total, golden.Cycles())

	step := total / uint64(*points)
	if step == 0 {
		step = 1
	}
	ok, failed := 0, 0
	var events uint64
	for crashAt := step; crashAt < total; crashAt += step {
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			fatal(err)
		}
		// Provenance tap for this crash run: the flight recorder preserves
		// per-line event chains; the auditor checks Fig. 7 invariants online
		// across the crash and the recovery replay.
		var (
			flight *audit.FlightRecorder
			aud    *audit.Auditor
			tap    audit.Sink
		)
		if *auditRun || *recordOut != "" {
			flight = audit.NewFlightRecorder(audit.DefaultRecorderCap)
			tap = flight
			if *auditRun {
				aud = audit.NewAuditor(m.AuditOptions())
				aud.AttachRecorder(flight)
				tap = audit.Tee(flight, aud)
			}
			m.SetTap(tap)
		}
		if err := m.RunUntil(crashAt); err != nil {
			fatal(fmt.Errorf("crash@%d: %w", crashAt, err))
		}
		if m.Done() {
			break
		}
		img, err := m.Crash()
		if err != nil {
			fatal(err)
		}
		r, rep, err := machine.RecoverOrdered(img, nil, tap)
		if err != nil {
			fatal(fmt.Errorf("crash@%d recover: %w", crashAt, err))
		}
		if err := r.Run(); err != nil {
			fatal(fmt.Errorf("crash@%d resume: %w", crashAt, err))
		}
		good := rep.ConflictingUndo == 0
		if b.Check != nil {
			// Interleaving-dependent workload (the contention suite): verify
			// the conservation invariants and exactly-once I/O instead of
			// comparing outputs word-for-word (see workload.Benchmark.Check).
			if err := b.Check(*scale, r.MemSnapshot()); err != nil {
				good = false
			}
			for t := 0; t < src.NumThreads(); t++ {
				if len(r.Output(t)) != len(goldenOut[t]) {
					good = false
				}
			}
		} else {
			for t := 0; t < src.NumThreads(); t++ {
				if !reflect.DeepEqual(r.Output(t), goldenOut[t]) {
					good = false
				}
			}
		}
		if aud != nil {
			events += aud.EventsAudited()
			if err := aud.Err(); err != nil {
				writeRecord(*recordOut, flight, aud, b.Name, r)
				fatal(fmt.Errorf("crash@%d %w", crashAt, err))
			}
		}
		if good {
			ok++
			fmt.Printf("crash@%-10d OK   (regions redone %d, undone entries %d, slices %d)\n",
				crashAt, rep.RegionsRedone, rep.EntriesUndone, rep.SlicesExecuted)
		} else {
			failed++
			fmt.Printf("crash@%-10d FAIL (conflicting undos: %d)\n", crashAt, rep.ConflictingUndo)
		}
		if flight != nil && crashAt+step >= total {
			writeRecord(*recordOut, flight, aud, b.Name, r)
		}
	}
	fmt.Printf("\n%d crash points recovered correctly, %d failed\n", ok, failed)
	if *auditRun {
		fmt.Printf("auditor: %d provenance events, 0 violations\n", events)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeRecord dumps the crash run's provenance record (no-op without
// -record-out).
func writeRecord(path string, flight *audit.FlightRecorder, aud *audit.Auditor, name string, m *machine.Machine) {
	if path == "" || flight == nil {
		return
	}
	fp := m.Program().Fingerprint()
	rr, err := audit.NewRunRecordFull(flight, aud, name,
		fmt.Sprintf("%x", fp[:]), m.Config(), m.Stats())
	if err != nil {
		fatal(err)
	}
	if err := rr.WriteFile(path); err != nil {
		fatal(err)
	}
	if path != "-" {
		fmt.Printf("record: %d events (%d retained) -> %s\n", rr.EventsTotal, rr.EventsKept, path)
	}
}

// runFuzz validates n randomly generated structured programs: each is
// compiled, run for a golden state, crash-swept, and recovered; any
// divergence is a bug in the compiler or the recovery protocol. With audited
// set, every crashed run is additionally observed by the Fig. 7 auditor.
func runFuzz(n int, seed uint64, threads, threshold, points int, barriers, audited bool) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = threads
	gcfg.Barriers = barriers
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	cfg.Threshold = threshold
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20

	failures := 0
	var events uint64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)*2654435761
		p := progen.Generate(s, gcfg)
		opts := compile.OptionsForLevel(compile.LevelLICM, threshold)
		validate := recovery.ValidateProgram
		if audited {
			validate = recovery.ValidateProgramAudited
		}
		res, err := validate(p, opts, cfg, points)
		if err != nil {
			failures++
			fmt.Printf("seed %-22d FAIL: %v\n", s, err)
			continue
		}
		events += res.EventsAudited
		fmt.Printf("seed %-22d OK   (%d crash points, %d regions redone, %d undos, %d slices)\n",
			s, res.Points, res.RegionsRedone, res.EntriesUndone, res.SlicesExecuted)
	}
	fmt.Printf("\n%d/%d random programs recovered correctly at every crash point\n", n-failures, n)
	if audited {
		fmt.Printf("auditor: %d provenance events across all crashed runs\n", events)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// parseCores parses the -cores flag: a comma-separated list of positive core
// counts ("" parses to nil).
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cores: %q is not a positive core count", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
