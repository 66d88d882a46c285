package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"vrex/internal/cluster"
	"vrex/internal/serve"
	"vrex/internal/telemetry"
	"vrex/internal/tensor"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 0.5, 9, 4, 7.25, 1, 3}, [3]float64{1, 3, 7.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(%v) = %v, want 2", xs, got)
	}
	if xs[0] != 3 {
		t.Error("median sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	var hundred []float64
	for i := 1; i <= 101; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 51}, {90, 91}, {95, 96}, {100, 101}} {
		if got := percentile(hundred, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..101, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{10, 20}, 25); !near(got, 12.5) {
		t.Errorf("percentile interpolates: got %v, want 12.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func fleetResult(t *testing.T) serve.Result {
	t.Helper()
	b, err := setupFleetChurn(5, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.(*serving).fleet[0]
	cfg.Workers = 1
	return serve.Run(cfg)
}

func TestServeChecksRejectTamperedResults(t *testing.T) {
	res := fleetResult(t)
	clean := &unitResult{}
	checkServeResult(clean, res)
	if clean.failed != 0 || len(clean.problems) != 0 || clean.attempted != len(res.PerStream) {
		t.Fatalf("untampered run: %d of %d failed, problems %v", clean.failed, clean.attempted, clean.problems)
	}

	drop := res
	drop.PerStream = append([]serve.StreamMetrics(nil), res.PerStream...)
	drop.PerStream[0].FramesDropped++
	u := &unitResult{}
	checkServeResult(u, drop)
	if u.failed != 1 {
		t.Errorf("miscounted drop: %d sessions failed, want 1", u.failed)
	}

	class := res
	class.PerClass = append([]serve.ClassMetrics(nil), res.PerClass...)
	class.PerClass[0].FramesServed++
	u = &unitResult{}
	checkServeResult(u, class)
	if u.failed != len(res.PerStream) || len(u.problems) == 0 {
		t.Errorf("class sum off by one: %d of %d failed, problems %v", u.failed, len(res.PerStream), u.problems)
	}
}

func TestSpanChecksRejectTamperedSpans(t *testing.T) {
	b, err := setupClusterObserved(5, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.(*serving).clu[0]
	cfg.Base.Workers = 1
	col := telemetry.NewCollector()
	col.Attach(&cfg.Base)
	res := cluster.Run(cfg).Serve
	spans, err := telemetry.BuildSpans(col.Events())
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *unitResult {
		u := &unitResult{}
		checkServeResult(u, res)
		return u
	}
	u := fresh()
	checkSpans(u, spans, nil, res)
	if u.failed != 0 {
		t.Fatalf("untampered spans: %d failed, problems %v", u.failed, u.problems)
	}

	unbalanced := append([]telemetry.Span(nil), spans...)
	unbalanced[0].Ended = false
	u = fresh()
	checkSpans(u, unbalanced, nil, res)
	if u.failed != 1 {
		t.Errorf("unbalanced span: %d sessions failed, want 1", u.failed)
	}

	extra := append([]telemetry.Span(nil), spans...)
	extra[0].Frames++
	u = fresh()
	checkSpans(u, extra, nil, res)
	if u.failed != len(res.PerStream) {
		t.Errorf("span frames off by one: %d of %d failed", u.failed, len(res.PerStream))
	}

	u = fresh()
	_, buildErr := telemetry.BuildSpans(append([]serve.Event{{Kind: serve.EventSessionStart, Session: 0}}, col.Events()...))
	checkSpans(u, nil, buildErr, res)
	if buildErr == nil || u.failed != len(res.PerStream) {
		t.Errorf("duplicated start (err %v): %d of %d failed", buildErr, u.failed, len(res.PerStream))
	}
}

func TestFunctionalChecks(t *testing.T) {
	m := tensor.NewMatrix(2, 3)
	if !finite(m) {
		t.Error("zero matrix reported non-finite")
	}
	m.Data[4] = float32(math.NaN())
	if finite(m) {
		t.Error("NaN hidden state passed the finite check")
	}
	m.Data[4] = float32(math.Inf(1))
	if finite(m) {
		t.Error("Inf hidden state passed the finite check")
	}

	ref := &unitResult{}
	for i := 0; i < 5; i++ {
		ref.op(uint64(i), true)
	}
	same := &unitResult{ops: append([]uint64(nil), ref.ops...), attempted: 5}
	if n := mismatches(ref, same, false); n != 0 {
		t.Errorf("identical units: %d mismatches", n)
	}
	tampered := &unitResult{ops: append([]uint64(nil), ref.ops...), attempted: 5}
	tampered.ops[3]++
	if n := mismatches(ref, tampered, false); n != 1 {
		t.Errorf("one changed output: %d mismatches, want 1", n)
	}
	prefix := &unitResult{ops: ref.ops[:2]}
	longer := &unitResult{ops: append(append([]uint64(nil), ref.ops...), 99)}
	if n := mismatches(prefix, longer, true); n != 0 {
		t.Errorf("prefix reference against a longer unit: %d mismatches", n)
	}
	extra := &unitResult{ops: ref.ops, extra: 1}
	if n := mismatches(ref, extra, false); n != len(ref.ops) {
		t.Errorf("unit-level output changed: %d mismatches, want %d", n, len(ref.ops))
	}

	// Questions interleaved in the cache map to no frame; mass on them is
	// ignored and scenes compare per frame.
	tokFrame := []int{0, 0, 1, 1, -1, 2, 2}
	sceneOf := []int{0, 0, 1}
	mass := []float64{0.1, 0.1, 0.1, 0.1, 5, 0.3, 0.2}
	if got := answerScene(mass, tokFrame, sceneOf); got != 1 {
		t.Errorf("answerScene = %d, want 1", got)
	}
}

func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			b, err := def.setup(9, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain := b.unit(nil, 1, 0)
			tr := newTracer(1000)
			tb, err := def.setup(9, true, tr)
			if err != nil {
				t.Fatal(err)
			}
			traced := tb.unit(tr, 1, 0)
			if plain.digest() != traced.digest() {
				t.Errorf("traced digest %x, untraced %x", traced.digest(), plain.digest())
			}
			if plain.correct != traced.correct || plain.questions != traced.questions || plain.sel != traced.sel {
				t.Errorf("traced answers/selections differ: %+v vs %+v", traced.sel, plain.sel)
			}
			for k, v := range plain.sim {
				if traced.sim[k] != v {
					t.Errorf("%s: traced %v, untraced %v", k, traced.sim[k], v)
				}
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Errorf("failed operations: untraced %d, traced %d", plain.failed, traced.failed)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%d spans left open", len(tr.stack))
			}
		})
	}
}

func TestWorkerInvariance(t *testing.T) {
	for _, def := range workloads {
		b, err := def.setup(4, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		limit := b.refLimit(true)
		ref := b.unit(nil, 2, limit)
		u := b.unit(nil, 1, 0)
		if n := mismatches(ref, u, limit > 0); n != 0 {
			t.Errorf("%s: %d operations differ between 1 and 2 workers", def.name, n)
		}
	}
}

func TestTimingsCoverEveryUnit(t *testing.T) {
	unit := func(wallMS int, frameMS ...float64) *unitResult {
		u := &unitResult{wall: time.Duration(wallMS) * time.Millisecond}
		for _, ms := range frameMS {
			u.steps = append(u.steps, step{kind: stepFrame, frames: 1, ms: ms})
			u.frames++
		}
		return u
	}
	units := []*unitResult{unit(40, 10, 30), unit(20, 5, 15), unit(30, 10, 20), unit(10, 1, 9)}
	var r report
	def := workloadDef{name: "w", functional: true}
	r.endToEnd(def, units, []*setupRun{{secs: 3}, {secs: 1}, {secs: 2}}, 0, 1)
	for name, want := range map[string]float64{
		"frames_per_s": 80,               // 8 frames in 100 ms
		"frame_ms_p50": (6.5 + 18.5) / 2, // the two frames at their means
		"frame_ms_p95": 6.5 + 0.95*(18.5-6.5),
		"setup_s":      2, // the median set-up
	} {
		if got := r.metrics[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := fastest(units); got != units[3] {
		t.Errorf("fastest picked the unit of %v", got.wall)
	}
	r = report{}
	r.endToEnd(def, append(units, unit(10, 1)), nil, 0, 1)
	if len(r.problems) != 1 {
		t.Errorf("a unit with a different step count gave %v, want one problem", r.problems)
	}
}

func TestSpanAccounting(t *testing.T) {
	tr := newTracer(2)
	tr.begin(spServeRun)
	tr.begin(spAssign)
	time.Sleep(time.Millisecond)
	tr.end()
	tr.begin(spSchedKey)
	tr.end()
	tr.end()
	tr.begin(spCompile)
	tr.end()
	wall := time.Since(tr.epoch)
	if got := tr.selfTotal() + (wall - tr.roots); got != wall {
		t.Errorf("self %v + unattributed %v = %v, want wall %v", tr.selfTotal(), wall-tr.roots, got, wall)
	}
	if ps := spanProblems(tr, wall); len(ps) > 0 {
		t.Errorf("closed spans within the wall rejected: %v", ps)
	}
	if ps := spanProblems(tr, tr.roots-time.Nanosecond); len(ps) != 1 {
		t.Errorf("root spans longer than the wall gave %v, want one problem", ps)
	}
	run := tr.stats[spServeRun]
	if run.Self != run.Total-tr.stats[spAssign].Total-tr.stats[spSchedKey].Total {
		t.Errorf("serve.Run self %v, total %v minus children", run.Self, run.Total)
	}
	if len(tr.spans) != 2 || tr.dropped != 2 {
		t.Errorf("kept %d spans and dropped %d, want 2 and 2", len(tr.spans), tr.dropped)
	}
	if s := tr.spans[0]; s.Kind != spAssign || s.Parent != 1 || s.ID != 2 {
		t.Errorf("first closed span = %+v, want serve.Balancer.Assign under span 1", s)
	}
	tr.begin(spServeRun)
	tr.begin(spAssign)
	tr.end()
	if ps := spanProblems(tr, time.Since(tr.epoch)); len(ps) != 1 || !strings.Contains(ps[0], "left open") {
		t.Errorf("an open span gave %v, want one problem naming it", ps)
	}
}

func TestFoldTop(t *testing.T) {
	top := `File: perfbench
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.80s 40.00%  vrex/internal/mathx.Dot
     0.40s 20.00% 60.00%      1.20s 60.00%  vrex/internal/model.(*Model).attention
     0.30s 15.00% 75.00%      0.30s 15.00%  runtime.mallocgc
     0.20s 10.00% 85.00%      0.20s 10.00%  slices.pdqsortCmpFunc[go.shape.struct { a int }]
     0.20s 10.00% 95.00%      0.20s 10.00%  container/heap.down
     0.10s  5.00%   100%      0.10s  5.00%  strconv.formatBits
`
	got := foldTop(top)
	want := map[string]float64{
		"cpu.mathx_pct": 40, "cpu.model_pct": 20, "cpu.runtime_pct": 15,
		"cpu.sort_pct": 10, "cpu.container_heap_pct": 10, "cpu.other_pct": 5,
	}
	total := 0.0
	for k, v := range got {
		total += v
		if !near(v, want[k]) {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if !near(total, 100) {
		t.Errorf("shares sum to %v, want 100", total)
	}
}

// lastJSON runs the command and decodes its last line of output.
func lastJSON(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, out.String()
}

func metricNames(m map[string]metric) []string {
	var ns []string
	for k := range m {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	return ns
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	wantE2E := append([]string(nil), endToEndNames...)
	sort.Strings(wantE2E)
	wantLayer := perLayerNames()
	sort.Strings(wantLayer)
	for _, def := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(def.name+"/trace"+trace, func(t *testing.T) {
				res, out := lastJSON(t, "--workload", def.name, "--seed", "2", "--seconds", "1",
					"--trace", trace, "--smoke", "--out", t.TempDir())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				want := wantE2E
				if trace == "1" {
					want = wantLayer
				}
				if got := metricNames(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "qa-short", "--seconds", "0"},
		{"--workload", "qa-short", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
