package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"
)

// Span names: one per call the benchmark makes into a module's public
// functions. The per-layer metric of a span is its self time — its duration
// minus the parts its child spans cover.
const (
	spanSetup   = "setup"
	spanOp      = "op"
	spanBuild   = "workload.build" // workload.Build / progen.Generate
	spanCompile = "compile"        // compile.Compile
	spanNew     = "machine.new"    // machine.New
	spanRun     = "machine.run"    // (*Machine).Run / RunUntil
	spanCrash   = "machine.crash"  // (*Machine).Crash
	spanRecover = "machine.recover"
	spanResume  = "machine.resume" // (*Machine).Run on the recovered machine
	spanGolden  = "recovery.golden"
	spanVerify  = "verify"
)

// maxFileSpans caps the spans kept for the Chrome trace file; aggregates
// cover every span regardless. A crash run records about ten spans per
// trial, so an uncapped 30 s trace would run to hundreds of megabytes.
const maxFileSpans = 200_000

// span is one finished span as written to the Chrome trace.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	id, parent int32 // parent 0: a root span
	op         int32 // op id; -1 outside ops
}

type openSpan struct {
	name    string
	start   int64
	id      int32
	op      int32
	childNS int64
}

// spanAgg accumulates one span name's self time and call count.
type spanAgg struct {
	selfNS int64
	calls  int64
}

// tracer records spans around the benchmark's calls into the program. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch  time.Time
	nextID int32
	open   []openSpan
	spans  []span
	agg    map[string]*spanAgg
	// Counters recorded at the same boundaries as the spans: compile pass
	// times, the run spans' CPU time and retired instructions.
	counts  map[string]float64
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), agg: map[string]*spanAgg{}, counts: map[string]float64{}}
}

func (t *tracer) begin(name string, op int) {
	if t == nil {
		return
	}
	t.nextID++
	t.open = append(t.open, openSpan{name: name, start: int64(time.Since(t.epoch)), id: t.nextID, op: int32(op)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now - s.start
	var parent int32
	if n := len(t.open); n > 0 {
		t.open[n-1].childNS += dur
		parent = t.open[n-1].id
	}
	a := t.agg[s.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.name] = a
	}
	a.selfNS += dur - s.childNS
	a.calls++
	if len(t.spans) < maxFileSpans {
		t.spans = append(t.spans, span{name: s.name, start: s.start, end: now, id: s.id, parent: parent, op: s.op})
	} else {
		t.dropped++
	}
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// layerTotals is a snapshot of the tracer's aggregates, so the set-up share
// can be separated from the timed phase's.
type layerTotals struct {
	selfNS map[string]int64
	calls  map[string]int64
	counts map[string]float64
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{selfNS: map[string]int64{}, calls: map[string]int64{}, counts: map[string]float64{}}
	for k, a := range t.agg {
		lt.selfNS[k], lt.calls[k] = a.selfNS, a.calls
	}
	for k, v := range t.counts {
		lt.counts[k] = v
	}
	return lt
}

// perJob combines a set-up snapshot with the final totals into one job's
// worth: the set-up once plus the timed phase divided by its passes.
func perJob(setup, final layerTotals, passes int) layerTotals {
	out := layerTotals{selfNS: map[string]int64{}, calls: map[string]int64{}, counts: map[string]float64{}}
	p := int64(passes)
	for k, v := range final.selfNS {
		out.selfNS[k] = setup.selfNS[k] + (v-setup.selfNS[k])/p
	}
	for k, v := range final.calls {
		out.calls[k] = setup.calls[k] + (v-setup.calls[k])/p
	}
	for k, v := range final.counts {
		out.counts[k] = setup.counts[k] + (v-setup.counts[k])/float64(passes)
	}
	return out
}

// chromeEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a file of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the recorded spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	meta["dropped_spans"] = t.dropped
	head, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n", head)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		ev := chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNS returns the CPU time of every thread of the process, in ns. On a
// paravirtualised guest it excludes time the hypervisor stole, which wall
// time on a shared host does not.
func cpuNS() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return ts.Nano()
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
