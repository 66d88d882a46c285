// Command perfbench is the repository benchmark: four closed-loop workloads
// that drive the library directly, print end-to-end metrics with their
// units and sample counts, check every output, and — in a separate traced
// run — time each layer through spans recorded around the calls the
// benchmark makes and the interfaces the library calls back through.
//
//	bash perfbench/run.sh --workload stream-long --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md for what
// each workload and metric measures and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	why      string
}

// workloadDef is one benchmark workload: its set-up builds the inputs from
// the seed (spans recorded when tr is non-nil).
type workloadDef struct {
	name, why  string
	functional bool
	setup      func(seed uint64, smoke bool, tr *tracer) (bench, error)
}

var workloads = []workloadDef{
	{"stream-long", "one ReSV stream growing to ~3K tokens: attention and ReSV selection carry the host time", true, setupStreamLong},
	{"qa-short", "COIN-average sessions built fresh per session: projections, construction and clustering carry it", true, setupQAShort},
	{"fleet-churn", "serve.Run over a churning V-Rex fleet with paging and degradation: the event engine carries it", false, setupFleetChurn},
	{"cluster-observed", "cluster.Run with faults, live migration and telemetry exports: engine plus telemetry write path", false, setupClusterObserved},
}

// setupRepeats is how many times an end-to-end run builds its inputs,
// back to back before the timed loop; setup_s is the median.
const setupRepeats = 5

// keepSpans bounds the spans kept for the span file of a traced run.
const keepSpans = 200000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one reported metric with its sample count.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: stream-long, qa-short, fleet-churn or cluster-observed")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 25, "seconds the timed loop runs (the traced run splits them between an untraced and a traced half)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to seconds-scale inputs (tests)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for captures, spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil || o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o.why = def.why
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// One worker thread: the timed loops are single-caller closed loops, and
	// the worker-invariance reference runs two workers interleaved on it.
	runtime.GOMAXPROCS(1)
	st := newStamp(o)
	rep, err := measure(*def, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return emit(o, st, rep, stdout, stderr)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// report is a finished run: the rows printed, the metrics of the last line
// and the failure accounting.
type report struct {
	rows      []row
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	digest    uint64
	spans     string
	spanTable []string
}

// measure sets the workload up, runs its timed loop and checks the outputs.
func measure(def workloadDef, o options) (*report, error) {
	first, err := setup(def, o, nil)
	if err != nil {
		return nil, err
	}
	ref := first.ref
	prefix := first.b.refLimit(o.smoke) > 0
	rep := &report{problems: ref.problems}
	if !o.trace {
		setups := []*setupRun{first}
		for len(setups) < setupRepeats {
			s, err := setup(def, o, nil)
			if err != nil {
				return nil, err
			}
			if n := mismatches(ref, s.ref, prefix); n > 0 {
				rep.problems = append(rep.problems, fmt.Sprintf("set-up %d: %d reference operations differ from set-up 1", len(setups)+1, n))
			}
			setups = append(setups, s)
		}
		units, gcPerUnit := timedUnits(first.b, float64(o.seconds), nil)
		peak := peakRSSMB()
		rep.account(ref, prefix, units[0], units)
		rep.endToEnd(def, units, setups, gcPerUnit, peak)
		return rep, nil
	}

	// Traced run: an untraced half under the CPU profiler, then a traced
	// half with a fresh set-up, both on the same inputs.
	half := float64(o.seconds) / 2
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	stop, err := startCPUProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	units, _ := timedUnits(first.b, half, nil)
	if err := stop(); err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer(keepSpans)
	ts, err := setup(def, o, tr)
	if err != nil {
		return nil, err
	}
	setupStats := tr.stats
	tunits, _ := timedUnits(ts.b, half, tr)
	wall := time.Since(tr.epoch)

	// The traced half must reproduce the untraced outputs exactly.
	rep.account(ref, prefix, units[0], units)
	rep.account(ref, prefix, units[0], tunits)
	if n := mismatches(ref, ts.ref, prefix); n > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("traced reference run: %d operations differ from the untraced one", n))
	}
	rep.spans = base + ".spans.json"
	if err := tr.writeSpans(rep.spans, wall); err != nil {
		return nil, err
	}
	cpu, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	rep.perLayer(tr, setupStats, units, tunits, wall, cpu)
	return rep, nil
}

// setupRun is one set-up: the built workload, its two-worker reference
// run, and the host seconds both took.
type setupRun struct {
	b    bench
	ref  *unitResult
	secs float64
}

// setup builds the workload from the seed and runs its two-worker
// reference.
func setup(def workloadDef, o options, tr *tracer) (*setupRun, error) {
	t0 := time.Now()
	b, err := def.setup(o.seed, o.smoke, tr)
	if err != nil {
		return nil, err
	}
	ref := b.unit(tr, 2, b.refLimit(o.smoke))
	return &setupRun{b: b, ref: ref, secs: time.Since(t0).Seconds()}, nil
}

// timedUnits runs whole units back to back until seconds have passed
// (always at least one), timing each and counting the bytes it allocated.
// It also returns the garbage collector's CPU seconds per unit over the
// loop.
func timedUnits(b bench, seconds float64, tr *tracer) ([]*unitResult, float64) {
	budget := time.Duration(seconds * float64(time.Second))
	var us []*unitResult
	var m0, m1 runtime.MemStats
	runtime.GC()
	gc0 := gcCPUSeconds()
	start := time.Now()
	for len(us) == 0 || time.Since(start) < budget {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		u := b.unit(tr, 1, 0)
		u.wall = time.Since(t0)
		runtime.ReadMemStats(&m1)
		u.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		us = append(us, u)
	}
	runtime.GC()
	return us, (gcCPUSeconds() - gc0) / float64(len(us))
}

// gcCPUSeconds reads the runtime's estimate of the CPU time spent in
// garbage collection so far, which it updates at the end of every cycle.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// account adds units to the failure accounting. An operation fails by
// failing its own checks, or by differing from the reference run (ref,
// covering only its first operations when prefix) or from first, the first
// unit of the same timed loop.
func (r *report) account(ref *unitResult, prefix bool, first *unitResult, units []*unitResult) {
	for i, u := range units {
		n := max(mismatches(ref, u, prefix), mismatches(first, u, false))
		if n > 0 {
			r.problems = append(r.problems, fmt.Sprintf("unit %d: %d operations differ from the reference run", i+1, n))
		}
		r.problems = append(r.problems, u.problems...)
		r.attempted += u.attempted
		r.failed += min(u.failed+n, u.attempted)
	}
	r.digest = first.digest()
}

// endToEnd fills the rows and end-to-end metrics of an untraced run. They
// describe what the timed loop did, collections included: the rate is every
// frame over every unit's wall, and the latency percentiles are taken over
// the frames, questions or engine runs of a unit, each at its mean over the
// units. Neither moves with the number of units a run fits into its
// seconds, and the mean keeps a host hiccup in one unit from setting a tail
// percentile on its own.
func (r *report) endToEnd(def workloadDef, units []*unitResult, setups []*setupRun, gcPerUnit, peakMB float64) {
	walls := make([]float64, len(units))
	var frames int
	var wall time.Duration
	var alloc uint64
	for i, u := range units {
		walls[i] = u.wall.Seconds()
		frames += u.frames
		wall += u.wall
		alloc += u.allocBytes
	}
	mean, err := stepMeans(units)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	var frameMS, answerMS, runMS []float64
	for _, st := range mean {
		switch st.kind {
		case stepFrame:
			frameMS = append(frameMS, st.ms)
		case stepQuestion:
			answerMS = append(answerMS, st.ms)
		case stepRun:
			runMS = append(runMS, st.ms/float64(st.frames))
		}
	}
	u0 := units[0]
	setupSecs := make([]float64, len(setups))
	for i, s := range setups {
		setupSecs[i] = s.secs
	}
	allocMB := float64(alloc) / float64(len(units)) / 1e6
	fps := float64(frames) / wall.Seconds()
	add := func(name string, v float64, unit string, n int, note string) {
		r.rows = append(r.rows, row{name, v, unit, n, note})
	}
	add("setup_s", median(setupSecs), "s", len(setupSecs), "host s to build inputs and run the two-worker reference, median of back-to-back set-ups: "+fmtList(setupSecs))
	ofUnit := fmt.Sprintf(", each at its mean over %d units", len(units))
	if def.functional {
		add("frames_per_s", fps, "frames/s", frames, fmt.Sprintf("video frames forwarded per host s, over %d units", len(units)))
		add("frame_ms_p50", percentile(frameMS, 50), "ms", frames, "host ms per frame Forward, over the unit's frames"+ofUnit)
		add("frame_ms_p95", percentile(frameMS, 95), "ms", frames, "host ms per frame Forward, over the unit's frames"+ofUnit)
		add("answer_ms_p50", percentile(answerMS, 50), "ms", u0.questions*len(units), "host ms per question: text Forward + answer read, over the unit's questions"+ofUnit)
		if asked := u0.questions * len(units); asked >= 100 {
			add("answer_ms_p90", percentile(answerMS, 90), "ms", asked, "host ms per question"+ofUnit)
		}
		add("accuracy_pct", 100*float64(u0.correct)/float64(u0.questions), "%", u0.questions, "questions answered with the planted scene (exact per seed)")
	} else {
		add("frames_per_s", fps, "frames/s", frames, fmt.Sprintf("simulated frame arrivals processed per host s, exports included (sim_frames_per_s), over %d units", len(units)))
		add("frame_ms_p50", percentile(runMS, 50), "ms", len(runMS)*len(units), "host ms per simulated frame, over the unit's engine runs"+ofUnit)
		add("frame_ms_p95", percentile(runMS, 95), "ms", len(runMS)*len(units), "host ms per simulated frame, over the unit's engine runs"+ofUnit)
		add("sim_frames_per_s", fps, "frames/s", frames, "the same as frames_per_s on this workload")
		add("sim_slo_pct", u0.sim["sim_slo_pct"], "%", int(u0.sim["sim_arrived"]), "simulated SLO attainment over arrived frames (exact per seed)")
		add("sim_goodput_fps", u0.sim["sim_goodput_fps"], "frames/sim_s", len(runMS), "simulated goodput, mean per run (exact per seed)")
		add("sim_utilization_pct", u0.sim["sim_utilization_pct"], "%", len(runMS), "simulated fleet utilization, mean per run (exact per seed)")
		add("sim_drop_pct", u0.sim["sim_drop_pct"], "%", int(u0.sim["sim_arrived"]), "simulated frames dropped (exact per seed)")
	}
	add("alloc_kb_per_frame", allocMB*1000/float64(u0.frames), "KB/frame", len(units), "host bytes allocated per frame processed")
	add("alloc_mb", allocMB, "MB", len(units), "host bytes allocated per unit of work")
	add("peak_mem_mb", peakMB, "MB", 1, "host peak resident memory (VmHWM)")
	add("frames_per_s_median_unit", float64(u0.frames)/median(walls), "frames/s", len(units), "frames per host s in the median unit")
	add("frames_per_s_fastest_unit", float64(u0.frames)/fastest(units).wall.Seconds(), "frames/s", len(units), "frames per host s in the fastest unit")
	add("gc_ms_per_unit", 1000*gcPerUnit, "ms", len(units), "garbage collector CPU ms per unit of work")
	add("gc_share_pct", 100*gcPerUnit*float64(len(units))/wall.Seconds(), "%", len(units), "garbage collector CPU time over the loop's wall")
	add("unit_wall_spread_pct", 100*iqrShare(walls), "%", len(walls), "quartile distance of the unit walls over their median: the host noise in this run")
	add("units", float64(len(units)), "count", len(units), "units of work run and checked in the timed loop")
	r.metrics = map[string]metric{}
	for _, row := range r.rows {
		if isEndToEnd(row.name) {
			r.metrics[row.name] = metric{clean(row.value), row.unit}
		}
	}
}

// fastest returns the unit with the shortest wall, the earliest on a tie.
func fastest(units []*unitResult) *unitResult {
	best := units[0]
	for _, u := range units[1:] {
		if u.wall < best.wall {
			best = u
		}
	}
	return best
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

// endToEndNames are the metrics every workload reports on its last line.
var endToEndNames = []string{"setup_s", "frames_per_s", "frame_ms_p50", "frame_ms_p95", "alloc_kb_per_frame"}

func isEndToEnd(name string) bool {
	for _, n := range endToEndNames {
		if n == name {
			return true
		}
	}
	return false
}

func clean(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// emit prints the capture stamp, the rows and the final JSON line, and
// writes the same capture to the output directory.
func emit(o options, st stamp, rep *report, stdout, stderr io.Writer) int {
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "capture %s\n", stampJSON)
	fmt.Fprintf(stdout, "workload %s: %s\n", o.workload, o.why)
	fmt.Fprintf(stdout, "%-34s %14s  %-12s %8s  %s\n", "metric", "value", "unit", "samples", "meaning")
	for _, r := range rep.rows {
		fmt.Fprintf(stdout, "%-34s %14.6g  %-12s %8d  %s\n", r.name, r.value, r.unit, r.samples, r.note)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed | output digest %016x\n", rep.attempted, rep.failed, rep.digest)
	for _, l := range rep.spanTable {
		fmt.Fprintln(stdout, l)
	}
	if rep.spans != "" {
		fmt.Fprintf(stdout, "spans: %s\n", rep.spans)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	capture := struct {
		Stamp  stamp  `json:"stamp"`
		Rows   []any  `json:"rows"`
		Result result `json:"result"`
	}{Stamp: st, Result: res}
	for _, r := range rep.rows {
		capture.Rows = append(capture.Rows, map[string]any{"name": r.name, "value": clean(r.value), "unit": r.unit, "samples": r.samples, "meaning": r.note})
	}
	if b, err := json.MarshalIndent(capture, "", " "); err == nil {
		mode := "e2e"
		if o.trace {
			mode = "trace"
		}
		name := fmt.Sprintf("%s-seed%d-%s.json", o.workload, o.seed, mode)
		if err := os.WriteFile(filepath.Join(o.out, name), b, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
