package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"vrex/internal/cluster"
	"vrex/internal/degrade"
	"vrex/internal/kvcache"
	"vrex/internal/model"
	"vrex/internal/serve"
	"vrex/internal/tensor"
)

// spanKind names a layer boundary the traced run records: a call the
// benchmark makes into a layer, or a call the library makes through one of
// the interface wrappers below.
type spanKind int

const (
	spSession spanKind = iota
	spModelNew
	spCoreNew
	spForwardFrame
	spForwardText
	spObserveFrame
	spObserveText
	spSelectFrame
	spSelectText
	spAnswer
	spCompile
	spServeRun
	spClusterRun
	spAssign
	spSchedKey
	spTarget
	spRoute
	spSinkObserve
	spSinkStall
	spMetrics
	spPrometheus
	spBuildSpans
	spWriteTrace
	spAttribution
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spSession:      "workload.Generator.Session",
	spModelNew:     "model.New",
	spCoreNew:      "core.New",
	spForwardFrame: "model.Forward(frame)",
	spForwardText:  "model.Forward(text)",
	spObserveFrame: "core.ReSV.ObserveAppend(frame)",
	spObserveText:  "core.ReSV.ObserveAppend(text)",
	spSelectFrame:  "core.ReSV.SelectTokens(frame)",
	spSelectText:   "core.ReSV.SelectTokens(text)",
	spAnswer:       "answer.read",
	spCompile:      "scenario.Parse+Config",
	spServeRun:     "serve.Run",
	spClusterRun:   "cluster.Run",
	spAssign:       "serve.Balancer.Assign",
	spSchedKey:     "serve.Scheduler.Key",
	spTarget:       "degrade.Controller.Target",
	spRoute:        "cluster.Router.Route",
	spSinkObserve:  "telemetry.Collector.Observe",
	spSinkStall:    "telemetry.Collector.Stall",
	spMetrics:      "telemetry.Collector.Metrics",
	spPrometheus:   "telemetry.Metrics.WritePrometheus",
	spBuildSpans:   "telemetry.BuildSpans",
	spWriteTrace:   "telemetry.Collector.WriteTrace",
	spAttribution:  "telemetry.AttributionTable",
}

// span is one recorded call: its id, the id of the span open around it (0
// at the root), the request it served, and its interval on the tracer's
// clock.
type span struct {
	ID, Parent, Req int64
	Kind            spanKind
	Start, End      time.Duration
}

type openSpan struct {
	id, parent, req int64
	kind            spanKind
	start, child    time.Duration
}

// spanStats folds every span of one kind: calls, total duration, and self
// time (duration minus the part covered by child spans).
type spanStats struct {
	Calls       int64
	Total, Self time.Duration
}

// tracer records spans in memory from a single goroutine. Every library
// callback it wraps arrives on the caller's goroutine (the model calls its
// retriever inline; the serve engine calls balancers, schedulers,
// controllers, routers and sinks from its single-threaded device loop), so
// a plain stack tracks nesting. A nil *tracer records nothing, which is how
// the untraced runs call the same code.
type tracer struct {
	epoch   time.Time
	keep    int
	spans   []span
	dropped int64
	stack   []openSpan
	nextID  int64
	req     int64
	stats   [numSpanKinds]spanStats
	// roots is the summed duration of spans with no parent: the traced
	// wall time minus roots is the time no span covers.
	roots time.Duration
}

// newTracer starts a tracer whose clock reads zero now. It keeps at most
// keep spans for the span file; spans beyond that still count in the
// per-kind statistics.
func newTracer(keep int) *tracer {
	return &tracer{epoch: time.Now(), keep: keep}
}

func (t *tracer) setReq(r int64) {
	if t != nil {
		t.req = r
	}
}

func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	t.nextID++
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, openSpan{id: t.nextID, parent: parent, req: t.req, kind: k, start: time.Since(t.epoch)})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	st := &t.stats[o.kind]
	st.Calls++
	st.Total += dur
	st.Self += dur - o.child
	if n > 0 {
		t.stack[n-1].child += dur
	} else {
		t.roots += dur
	}
	if len(t.spans) < t.keep {
		t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Kind: o.kind, Start: o.start, End: end})
	} else {
		t.dropped++
	}
}

// selfTotal sums self time over every kind; with the unattributed
// remainder (wall - roots) it adds up to the traced wall time.
func (t *tracer) selfTotal() time.Duration {
	var s time.Duration
	for _, st := range t.stats {
		s += st.Self
	}
	return s
}

// writeSpans writes the kept spans as JSON.
func (t *tracer) writeSpans(path string, wall time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"wall_ns\":%d,\"unattributed_ns\":%d,\"dropped\":%d,\"spans\":[", wall, wall-t.roots, t.dropped)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"dur_ns\":%d}",
			s.ID, s.Parent, s.Req, spanNames[s.Kind], s.Start, s.End-s.Start)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- interface wrappers: time each call the library makes through them ---

// tracedRetriever wraps the ReSV retriever the model calls once per layer
// per Forward. stage names the Forward in progress (ObserveAppend does not
// receive it).
type tracedRetriever struct {
	inner model.Retriever
	tr    *tracer
	stage model.Stage
}

func (w *tracedRetriever) ObserveAppend(layer int, cache *kvcache.LayerCache, base, n int) {
	k := spObserveFrame
	if w.stage == model.StageText {
		k = spObserveText
	}
	w.tr.begin(k)
	w.inner.ObserveAppend(layer, cache, base, n)
	w.tr.end()
}

func (w *tracedRetriever) SelectTokens(layer int, cache *kvcache.LayerCache, q *tensor.Matrix, base int, stage model.Stage) []int {
	k := spSelectFrame
	if stage == model.StageText {
		k = spSelectText
	}
	w.tr.begin(k)
	sel := w.inner.SelectTokens(layer, cache, q, base, stage)
	w.tr.end()
	return sel
}

type tracedBalancer struct {
	serve.Balancer
	tr *tracer
}

func (b *tracedBalancer) Assign(now float64, class int, devices []serve.DeviceState) int {
	b.tr.begin(spAssign)
	d := b.Balancer.Assign(now, class, devices)
	b.tr.end()
	return d
}

type tracedScheduler struct {
	serve.Scheduler
	tr *tracer
}

func (s *tracedScheduler) Key(it serve.WorkItem) float64 {
	s.tr.begin(spSchedKey)
	k := s.Scheduler.Key(it)
	s.tr.end()
	return k
}

type tracedController struct {
	degrade.Controller
	tr *tracer
}

func (c *tracedController) Target(sig degrade.Signals) float64 {
	c.tr.begin(spTarget)
	v := c.Controller.Target(sig)
	c.tr.end()
	return v
}

type tracedRouter struct {
	cluster.Router
	tr *tracer
}

func (r *tracedRouter) Route(now float64, class int, nodes []cluster.NodeState) int {
	r.tr.begin(spRoute)
	n := r.Router.Route(now, class, nodes)
	r.tr.end()
	return n
}

type tracedSink struct {
	serve.TelemetrySink
	tr *tracer
}

func (s *tracedSink) Observe(ev serve.Event) {
	s.tr.begin(spSinkObserve)
	s.TelemetrySink.Observe(ev)
	s.tr.end()
}

func (s *tracedSink) Stall(device int, start, dur float64, kind serve.StallKind) {
	s.tr.begin(spSinkStall)
	s.TelemetrySink.Stall(device, start, dur, kind)
	s.tr.end()
}

// eventCounter counts engine events by kind (the traced run attaches it as
// the serve Observer).
type eventCounter struct{ n [64]int64 }

func (c *eventCounter) Observe(ev serve.Event) { c.n[ev.Kind]++ }

// eventKinds lists the engine's event kinds in enum order.
func eventKinds() []serve.EventKind {
	var ks []serve.EventKind
	for k := serve.EventKind(0); k.String() != "unknown"; k++ {
		ks = append(ks, k)
	}
	return ks
}
