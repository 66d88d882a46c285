package main

import (
	"fmt"
	"time"
)

// perLayerNames are the metrics of a traced run's last line, in report
// order. Every workload prints all of them; a layer the workload does not
// exercise reads 0 (the functional layers on the serving workloads and the
// other way round).
func perLayerNames() []string {
	names := []string{
		"workload.session_ms",
		"model.new_ms", "model.forward_ms_frame", "model.forward_ms_text", "model.forward_calls", "model.self_ms_frame",
		"core.observe_ms_frame", "core.select_ms_frame", "core.select_ms_text", "core.select_calls",
		"core.frame_ratio_pct", "core.text_ratio_pct", "core.examined_pct", "hashbit.tokens_per_cluster",
		"serve.run_s", "serve.ns_per_event", "serve.events",
	}
	for _, k := range eventKinds() {
		names = append(names, eventMetric(k))
	}
	names = append(names,
		"serve.batches", "serve.frames_per_batch",
		"serve.assign_calls", "serve.assign_ns", "serve.sched_key_calls", "serve.sched_key_ns",
		"serve.queue_wait_p50_sim_ms",
		"kvpool.pages_in", "kvpool.pages_out", "kvpool.page_sim_s", "kvpool.sessions_queued",
		"degrade.target_calls", "degrade.target_ns", "degrade.steps",
		"cluster.route_calls", "cluster.route_ns", "cluster.migrations_live", "cluster.migrations_lossy",
		"telemetry.observe_ns", "telemetry.events", "telemetry.metrics_s", "telemetry.spans_s", "telemetry.trace_s",
		"scenario.compile_ms",
		"trace.overhead_pct", "trace.unattributed_pct",
	)
	return append(names, cpuMetricNames()...)
}

// perLayer fills the rows and metrics of a traced run. Timings come from
// the spans of the traced units (or of the traced set-up, for layers only
// set-up calls); counts are per unit of work and exact for a seed.
func (r *report) perLayer(tr *tracer, setupStats [numSpanKinds]spanStats, units, tunits []*unitResult, wall time.Duration, cpu map[string]float64) {
	nUnits := float64(len(tunits))
	var delta [numSpanKinds]spanStats
	for k := range delta {
		delta[k] = spanStats{
			Calls: tr.stats[k].Calls - setupStats[k].Calls,
			Total: tr.stats[k].Total - setupStats[k].Total,
			Self:  tr.stats[k].Self - setupStats[k].Self,
		}
	}
	pick := func(k spanKind) spanStats {
		if delta[k].Calls > 0 {
			return delta[k]
		}
		return setupStats[k]
	}
	mean := func(k spanKind, scale float64) float64 {
		s := pick(k)
		if s.Calls == 0 {
			return 0
		}
		return float64(s.Total.Nanoseconds()) / float64(s.Calls) / scale
	}
	calls := func(k spanKind) float64 { return float64(delta[k].Calls) / nUnits }
	// perCall is span time of kind k per call of kind per, in ms.
	perCall := func(k, per spanKind) float64 {
		if delta[per].Calls == 0 {
			return 0
		}
		return float64(delta[k].Total.Nanoseconds()) / float64(delta[per].Calls) / 1e6
	}
	perUnitS := func(ks ...spanKind) float64 {
		var t time.Duration
		for _, k := range ks {
			t += delta[k].Total
		}
		return t.Seconds() / nUnits
	}

	u := tunits[0]
	add := func(name string, v float64, unit string, n float64) {
		r.rows = append(r.rows, row{name, v, unit, int(n), ""})
	}
	add("workload.session_ms", mean(spSession, 1e6), "ms", float64(pick(spSession).Calls))
	add("model.new_ms", mean(spModelNew, 1e6), "ms", float64(pick(spModelNew).Calls))
	add("model.forward_ms_frame", mean(spForwardFrame, 1e6), "ms", float64(delta[spForwardFrame].Calls))
	add("model.forward_ms_text", mean(spForwardText, 1e6), "ms", float64(delta[spForwardText].Calls))
	add("model.forward_calls", calls(spForwardFrame)+calls(spForwardText), "count/unit", nUnits)
	selfFrame := 0.0
	if n := delta[spForwardFrame].Calls; n > 0 {
		selfFrame = float64(delta[spForwardFrame].Self.Nanoseconds()) / float64(n) / 1e6
	}
	add("model.self_ms_frame", selfFrame, "ms", float64(delta[spForwardFrame].Calls))
	add("core.observe_ms_frame", perCall(spObserveFrame, spForwardFrame), "ms/frame", float64(delta[spObserveFrame].Calls))
	add("core.select_ms_frame", perCall(spSelectFrame, spForwardFrame), "ms/frame", float64(delta[spSelectFrame].Calls))
	add("core.select_ms_text", perCall(spSelectText, spForwardText), "ms/question", float64(delta[spSelectText].Calls))
	add("core.select_calls", calls(spSelectFrame)+calls(spSelectText), "count/unit", nUnits)
	sel := u.sel
	add("core.frame_ratio_pct", pct(float64(sel.frameSel), float64(sel.frameCand)), "%", float64(sel.calls))
	add("core.text_ratio_pct", pct(float64(sel.textSel), float64(sel.textCand)), "%", float64(sel.calls))
	add("core.examined_pct", pct(sel.examined, float64(sel.calls)), "%", float64(sel.calls))
	add("hashbit.tokens_per_cluster", ratio(float64(sel.tokens), float64(sel.clusters)), "tokens", float64(sel.clusters))

	runKind := spServeRun
	if delta[spClusterRun].Calls > 0 {
		runKind = spClusterRun
	}
	events := u.sim["serve.events"]
	add("serve.run_s", mean(runKind, 1e9), "s", float64(delta[runKind].Calls))
	add("serve.ns_per_event", ratio(perUnitS(runKind)*1e9, events), "ns/event", events*nUnits)
	add("serve.events", events, "count/unit", nUnits)
	for _, k := range eventKinds() {
		add(eventMetric(k), u.sim[eventMetric(k)], "count/unit", nUnits)
	}
	add("serve.batches", u.sim["serve.batches"], "count/unit", nUnits)
	add("serve.frames_per_batch", u.sim["serve.frames_per_batch"], "frames", u.sim["serve.batches"])
	add("serve.assign_calls", calls(spAssign), "count/unit", nUnits)
	add("serve.assign_ns", mean(spAssign, 1), "ns", float64(delta[spAssign].Calls))
	add("serve.sched_key_calls", calls(spSchedKey), "count/unit", nUnits)
	add("serve.sched_key_ns", mean(spSchedKey, 1), "ns", float64(delta[spSchedKey].Calls))
	add("serve.queue_wait_p50_sim_ms", u.sim["serve.queue_wait_p50_sim_ms"], "sim_ms", nUnits)
	add("kvpool.pages_in", u.sim["kvpool.pages_in"], "count/unit", nUnits)
	add("kvpool.pages_out", u.sim["kvpool.pages_out"], "count/unit", nUnits)
	add("kvpool.page_sim_s", u.sim["kvpool.page_sim_s"], "sim_s", nUnits)
	add("kvpool.sessions_queued", u.sim["kvpool.sessions_queued"], "count/unit", nUnits)
	add("degrade.target_calls", calls(spTarget), "count/unit", nUnits)
	add("degrade.target_ns", mean(spTarget, 1), "ns", float64(delta[spTarget].Calls))
	add("degrade.steps", u.sim["degrade.steps"], "count/unit", nUnits)
	add("cluster.route_calls", calls(spRoute), "count/unit", nUnits)
	add("cluster.route_ns", mean(spRoute, 1), "ns", float64(delta[spRoute].Calls))
	add("cluster.migrations_live", u.sim["cluster.migrations_live"], "count/unit", nUnits)
	add("cluster.migrations_lossy", u.sim["cluster.migrations_lossy"], "count/unit", nUnits)
	add("telemetry.observe_ns", mean(spSinkObserve, 1), "ns", float64(delta[spSinkObserve].Calls))
	add("telemetry.events", u.sim["telemetry.events"], "count/unit", nUnits)
	add("telemetry.metrics_s", perUnitS(spMetrics, spPrometheus), "s/unit", nUnits)
	add("telemetry.spans_s", perUnitS(spBuildSpans), "s/unit", nUnits)
	add("telemetry.trace_s", perUnitS(spWriteTrace), "s/unit", nUnits)
	add("scenario.compile_ms", mean(spCompile, 1e6), "ms", float64(pick(spCompile).Calls))

	var uw, tw []float64
	for _, x := range units {
		uw = append(uw, x.wall.Seconds())
	}
	for _, x := range tunits {
		tw = append(tw, x.wall.Seconds())
	}
	add("trace.overhead_pct", 100*(median(tw)/median(uw)-1), "%", float64(len(tw)))
	unattributed := wall - tr.roots
	add("trace.unattributed_pct", pct(unattributed.Seconds(), wall.Seconds()), "%", 1)
	// Self times plus the unattributed remainder sum to the wall by
	// construction; what can go wrong is a span left open, or root spans
	// covering more than the wall.
	r.problems = append(r.problems, spanProblems(tr, wall)...)
	for _, name := range cpuMetricNames() {
		add(name, cpu[name], "%", 1)
	}

	r.metrics = map[string]metric{}
	for _, row := range r.rows {
		r.metrics[row.name] = metric{clean(row.value), row.unit}
	}
	r.spanTable = spanTable(tr, wall)
}

// spanProblems checks a finished traced run: every span closed, and the
// root spans covering no more than the traced wall time.
func spanProblems(tr *tracer, wall time.Duration) []string {
	var ps []string
	if n := len(tr.stack); n > 0 {
		ps = append(ps, fmt.Sprintf("%d spans left open, innermost %s", n, spanNames[tr.stack[n-1].kind]))
	}
	if wall < tr.roots {
		ps = append(ps, fmt.Sprintf("root spans cover %v, more than the traced wall %v", tr.roots, wall))
	}
	return ps
}

// spanTable renders every span kind's calls, total and self time, and the
// unattributed remainder; self times plus the remainder equal the wall.
func spanTable(tr *tracer, wall time.Duration) []string {
	lines := []string{fmt.Sprintf("%-36s %10s %12s %12s", "span", "calls", "total_ms", "self_ms")}
	for k, st := range tr.stats {
		if st.Calls == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("%-36s %10d %12.3f %12.3f", spanNames[k], st.Calls,
			float64(st.Total.Nanoseconds())/1e6, float64(st.Self.Nanoseconds())/1e6))
	}
	un := wall - tr.roots
	lines = append(lines,
		fmt.Sprintf("%-36s %10s %12s %12.3f", "(unattributed)", "", "", float64(un.Nanoseconds())/1e6),
		fmt.Sprintf("%-36s %10s %12.3f %12.3f", "(traced wall)", "", float64(wall.Nanoseconds())/1e6,
			float64((tr.selfTotal()+un).Nanoseconds())/1e6),
		fmt.Sprintf("spans kept %d, beyond the cap %d", len(tr.spans), tr.dropped))
	return lines
}

func pct(a, b float64) float64 { return 100 * ratio(a, b) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
