package serve

import (
	"strings"

	"vrex/internal/hwsim"
	"vrex/internal/named"
	"vrex/internal/policyspec"
)

// DefaultBatchMax is the frames-per-step cap when SchedulerConfig leaves
// BatchMax unset: deep enough that the per-step weight read amortises well,
// shallow enough that a batch never stalls a deadline by more than a few
// frame times.
const DefaultBatchMax = 8

// SchedulerConfig configures the per-device continuous-batching scheduler
// plane. Frame and query arrivals queue per device and the device forms one
// hardware step whenever it is free: ready frames coalesce (up to BatchMax)
// into a single batched step priced by hwsim.Step — one weight read and one
// fixed host overhead for the whole batch — while queries (prefill + full
// answer) always execute as solo steps. The policy orders the ready queue;
// per-class deadlines (StreamClass.SLO) drive the edf policy and the
// SLO/goodput metrics.
//
// The zero value (nil Policy) is fifo at batch cap 1: every frame and query
// is its own step, served in arrival order.
type SchedulerConfig struct {
	// Policy orders ready work at each batch-formation point; nil means fifo
	// at batch cap 1. Build one with ParseScheduler ("fifo", "edf",
	// "priority") or implement Scheduler directly.
	Policy Scheduler
	// BatchMax caps the frames coalesced into one hardware step when Policy
	// is set (DefaultBatchMax when 0, 1 restores one-item steps).
	BatchMax int
	// SLO is the default frame deadline in seconds for classes that leave
	// StreamClass.SLO unset; 0 falls back to one frame interval (1/FPS).
	SLO float64
}

// WorkItem is the scheduling policy's view of one queued frame or query.
type WorkItem struct {
	Session int
	// Class indexes the run's stream mix; Priority is that class's
	// StreamClass.Priority.
	Class    int
	Priority int
	// Query marks a query (prefill + answer) item; false for a video frame.
	Query bool
	// Arrival is the item's arrival time; Deadline is Arrival plus the
	// class's resolved SLO.
	Arrival  float64
	Deadline float64
}

// Scheduler orders a device's ready queue: items with lower keys serve
// first, ties break by global arrival order. Keys are computed once at
// enqueue, so they must be a pure function of the item.
type Scheduler interface {
	Name() string
	Key(WorkItem) float64
}

// fifoSched serves in arrival order (every key equal; the arrival-sequence
// tie-break does the ordering).
type fifoSched struct{}

func (fifoSched) Name() string         { return "fifo" }
func (fifoSched) Key(WorkItem) float64 { return 0 }

// edfSched is earliest-deadline-first: tighter-SLO classes overtake.
type edfSched struct{}

func (edfSched) Name() string            { return "edf" }
func (edfSched) Key(it WorkItem) float64 { return it.Deadline }

// prioritySched serves by stream-class priority (lower StreamClass.Priority
// first), arrival order within a class.
type prioritySched struct{}

func (prioritySched) Name() string            { return "priority" }
func (prioritySched) Key(it WorkItem) float64 { return float64(it.Priority) }

// schedulers is the scheduling-policy registry: CLIs resolve -scheduler
// specs here through the shared policyspec grammar.
var schedulers = named.New[func(*policyspec.Spec) (Scheduler, error)]("serve", "scheduler")

func init() {
	RegisterScheduler("fifo", func(sp *policyspec.Spec) (Scheduler, error) {
		return fifoSched{}, sp.CheckConsumed()
	})
	RegisterScheduler("edf", func(sp *policyspec.Spec) (Scheduler, error) {
		return edfSched{}, sp.CheckConsumed()
	})
	RegisterScheduler("priority", func(sp *policyspec.Spec) (Scheduler, error) {
		return prioritySched{}, sp.CheckConsumed()
	})
}

// RegisterScheduler adds a scheduling-policy factory under name
// (lower-cased); duplicates panic — registry names are part of the CLI
// surface.
func RegisterScheduler(name string, f func(*policyspec.Spec) (Scheduler, error)) {
	schedulers.Register(name, f)
}

// SchedulerNames returns the registered scheduling policy names, sorted.
func SchedulerNames() []string { return schedulers.Names() }

// ParseScheduler builds a scheduling policy from a policyspec string
// ("fifo", "edf", "priority"); "" and "none" return nil (fifo at batch cap
// 1).
func ParseScheduler(spec string) (Scheduler, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "none") {
		return nil, nil
	}
	sp, err := policyspec.Parse(spec)
	if err != nil {
		return nil, err
	}
	f, ok := schedulers.Lookup(sp.Name)
	if !ok {
		return nil, schedulers.Unknown(sp.Name)
	}
	return f(sp)
}

// readyItem is one queued frame or query on a device's ready heap.
type readyItem struct {
	at      float64
	key     float64
	seq     int
	session int
	query   bool
}

// before orders a ready heap by (policy key, arrival time, schedule
// sequence): policy first, arrival order within a key — seq alone is not
// arrival order (it numbers per-session event blocks) and only breaks
// exact-time ties, exactly as the event heap does.
func (a readyItem) before(b readyItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// batchMember is a frame admitted into the step under formation, with the
// page-movement time its admission charged.
type batchMember struct {
	it     readyItem
	paging float64
}

// initScheduler resolves the scheduler plane for a run: a nil Policy is fifo
// at batch cap 1, and DefaultBatchMax fills an unset cap only when a policy
// is set.
func (e *engine) initScheduler() {
	e.sched, e.batchMax = e.cfg.Scheduler.Policy, e.cfg.Scheduler.BatchMax
	if e.sched == nil {
		e.sched, e.batchMax = fifoSched{}, 1
	} else if e.batchMax <= 0 {
		e.batchMax = DefaultBatchMax
	}
	e.ready = make([]minHeap[readyItem], e.nDev)
	e.stepScheduled = make([]bool, e.nDev)
	e.pending = make([]int, len(e.sessions))
	e.ended = make([]bool, len(e.sessions))
	e.reqs = make([]hwsim.StepReq, 0, e.batchMax)
}

// run is the event loop: arrivals enqueue onto their device's ready heap
// and the device forms policy-ordered steps whenever it is free.
func (e *engine) run() {
	for e.events.len() > 0 {
		e.handle(e.pop())
	}
}

// pop removes the earliest pending event and puts its source's next event
// on the heap: a session's next arrival after any arrival but its end, the
// next controller tick after a tick.
//
//vrex:noalloc
func (e *engine) pop() event {
	ev := e.events.pop()
	switch ev.kind {
	case evStart, evFrame, evQuery:
		e.events.push(e.arr[ev.session].next(ev.session))
	case evControl:
		if i := ev.seq - e.tickSeq + 1; i < len(e.ticks) {
			e.events.push(event{at: e.ticks[i], session: -1, kind: evControl, seq: ev.seq + 1})
		}
	}
	return ev
}

// handle processes one popped event.
func (e *engine) handle(ev event) {
	if ev.kind == evStep {
		d := ev.session
		e.stepScheduled[d] = false
		e.formBatch(d, ev.at)
		return
	}
	if ev.kind == evControl {
		e.handleControl(ev.at)
		return
	}
	sess := &e.sessions[ev.session]
	switch ev.kind {
	case evStart:
		e.startSession(ev)
		return
	case evEnd:
		d := sess.device
		e.devs[d].ActiveSessions--
		e.devs[d].ClassSessions[sess.class]--
		e.alive[ev.session] = false
		if e.pending[ev.session] > 0 {
			// Queued work outlives the session: hold its KV (and pool
			// pages) until the last pending item resolves.
			e.ended[ev.session] = true
		} else {
			e.releaseSession(ev.session, ev.at)
		}
		e.observe(EventSessionEnd, ev.at, ev.session, latencyNone)
		return
	}
	m := &e.metrics[ev.session]
	if ev.kind == evFrame {
		m.FramesArrived++
	}
	// A session on a down device (it could not be moved off, or every
	// device is down) and a queued or rejected session (it holds no
	// pages) drop their frames and leave their queries unanswered.
	if e.devs[sess.device].Down || (e.plane != nil && e.plane.state[ev.session] != sessAdmitted) {
		if ev.kind == evFrame {
			m.FramesDropped++
			e.observe(EventFrameDropped, ev.at, ev.session, latencyNone)
		} else {
			m.QueriesDropped++
			e.observe(EventQueryDropped, ev.at, ev.session, latencyNone)
		}
		return
	}
	d := sess.device
	it := readyItem{at: ev.at, seq: ev.seq, session: ev.session, query: ev.kind == evQuery}
	it.key = e.sched.Key(WorkItem{
		Session: ev.session, Class: sess.class,
		Priority: e.classes[sess.class].Priority, Query: it.query,
		Arrival: ev.at, Deadline: ev.at + e.slo[sess.class],
	})
	e.ready[d].push(it)
	e.pending[ev.session]++
	e.wake(d, ev.at)
}

// wake schedules device d's next wake-up at the later of at and the end of
// its current step, unless one is already pending.
func (e *engine) wake(d int, at float64) {
	if e.stepScheduled[d] {
		return
	}
	if e.devs[d].Free > at {
		at = e.devs[d].Free
	}
	e.scheduleStep(d, at)
}

// scheduleStep pushes device d's next wake-up at time t; the caller
// guarantees no wake-up is pending.
func (e *engine) scheduleStep(d int, t float64) {
	e.events.push(event{at: t, session: d, kind: evStep, seq: e.stepSeq})
	e.stepSeq++
	e.stepScheduled[d] = true
}

// resolve retires one pending item (served or dropped) for session s,
// releasing the session's KV once it has departed and drained.
func (e *engine) resolve(s int, at float64) {
	e.pending[s]--
	if e.ended[s] && e.pending[s] == 0 {
		e.releaseSession(s, at)
	}
}

// formBatch runs one scheduling point on device d at time at: pick ready
// items in policy order, dropping stale or unallocatable frames, until one
// hardware step forms — a frame batch up to batchMax, or a solo query — then
// charge it and schedule the next wake-up at the step's completion.
func (e *engine) formBatch(d int, at float64) {
	q := &e.ready[d]
	if q.len() == 0 {
		return
	}
	if e.devs[d].Down {
		// The device died with work queued (it could not be moved): drop it.
		e.dropReady(d, at)
		return
	}
	if e.devs[d].Free > at {
		// The device picked up work (admission paging) after this wake-up
		// was scheduled; form the batch when it actually frees up.
		e.scheduleStep(d, e.devs[d].Free)
		return
	}
	for q.len() > 0 {
		head := q.pop()
		if head.query {
			if e.serveQuery(d, head, at) {
				break
			}
			continue // dropped without occupying the device; keep picking
		}
		paging, ok := e.admitFrame(d, head, at)
		if !ok {
			continue
		}
		members := append(e.members[:0], batchMember{it: head, paging: paging})
		// Extend the step with ready frames in strict policy order: a query
		// at the front ends the batch rather than being overtaken.
		for len(members) < e.batchMax && q.len() > 0 && !q.items[0].query {
			it := q.pop()
			p, ok := e.admitFrame(d, it, at)
			if !ok {
				continue
			}
			members = append(members, batchMember{it: it, paging: p})
		}
		e.serveFrames(d, members, at)
		e.members = members[:0]
		break
	}
	if q.len() > 0 {
		e.scheduleStep(d, e.devs[d].Free)
	}
}

// admitFrame applies per-frame admission to ready frame it on device d at
// its service start: the drop threshold (measured from arrival to service
// start), the device-memory check, and — with the memory-pressure plane —
// reserving pages for the frame's new tokens and making the session fully
// resident (the returned page-movement time lands on the device timeline
// before the frame's step, like any other work). A failure drops the frame
// with its accounting and retires its pending slot.
func (e *engine) admitFrame(d int, it readyItem, start float64) (paging float64, ok bool) {
	s := it.session
	e.degradeDecide(s, d, it.at)
	sc := e.classes[e.sessions[s].class].Stream
	ok = !(e.cfg.DropThreshold > 0 && start-it.at > e.cfg.DropThreshold*(1/sc.FPS)) &&
		!e.sims[d].OOM(hwsim.StepReq{KVLen: e.kv[s], RatioScale: e.budgetOf(s)})
	if ok && e.plane != nil {
		pool := e.plane.pools[d]
		var growSpill float64
		if growSpill, ok = pool.Grow(s, sc.TokensPerFrame, it.at); ok {
			pageIn, pageOut := pool.Touch(s, it.at)
			paging = growSpill + pageIn + pageOut
			e.profPaging(d, start, growSpill+pageOut, pageIn)
		}
	}
	if !ok {
		e.metrics[s].FramesDropped++
		e.observe(EventFrameDropped, it.at, s, latencyNone)
		e.resolve(s, start)
	}
	return paging, ok
}

// serveFrames charges one coalesced frame step: the batch's page movement
// lands on the device timeline once, before the step, and every member
// completes at the step's end. Each member's latency is measured against the
// captured completion time, so a member's session teardown (resolve can
// charge drain paging onto the device) never bleeds into a batchmate's
// sample. The batch-formed event follows the members' served events and
// carries the head session's post-step KV, matching the query step's
// convention.
func (e *engine) serveFrames(d int, members []batchMember, at float64) {
	dev := &e.devs[d]
	start := at
	if dev.Free > start {
		start = dev.Free
	}
	paging := 0.0
	reqs := e.reqs[:0]
	for _, mb := range members {
		sc := e.classes[e.sessions[mb.it.session].class].Stream
		// Per-member budget scale: degraded members cheapen the coalesced
		// step (and the serial OOM fallback below inherits it per request).
		reqs = append(reqs, hwsim.StepReq{
			NewTokens: sc.TokensPerFrame, KVLen: e.kv[mb.it.session],
			Stage: hwsim.StageFramePhase, RatioScale: e.budgetOf(mb.it.session),
		})
		paging += mb.paging
	}
	b := e.sims[d].Step(reqs)
	total := b.Total
	if b.OOM {
		// The members fit individually (admitFrame checked) but not
		// co-resident: price the step as serial sub-steps instead of
		// dropping work the pool already allocated.
		total = 0
		for i := range reqs {
			total += e.sims[d].Step(reqs[i : i+1]).Total
		}
	}
	dev.Free = start + paging + total
	dev.Busy += paging + total
	e.profCharge(paging + total)
	done := dev.Free
	e.devMetrics[d].Batches++
	for _, mb := range members {
		s := mb.it.session
		sc := e.classes[e.sessions[s].class].Stream
		e.kv[s] += sc.TokensPerFrame
		dev.ResidentKV += sc.TokensPerFrame
		e.trackPeak(d)
		e.metrics[s].FramesServed++
		e.devMetrics[d].FramesServed++
		lat := done - mb.it.at
		e.latencies[s] = append(e.latencies[s], lat)
		e.observe(EventFrameServed, mb.it.at, s, lat)
		e.served(s, d, mb.it.at, start-mb.it.at, lat, true)
		e.resolve(s, at)
	}
	e.observeBatch(at, d, members[0].it.session, len(members), total)
	e.reqs = reqs[:0]
}

// serveQuery charges ready query it as one solo step on device d at
// formation time at: prefill plus the full answer, KV growing token by
// token. It reports whether the device was occupied (false when the
// memory-pressure plane could not allocate the KV growth — the query
// drops). Either way the query's pending slot retires. The batch-formed
// event follows the query's served event, since the step's service time is
// only known after pricing.
func (e *engine) serveQuery(d int, it readyItem, at float64) bool {
	s, arrival := it.session, it.at
	e.degradeDecide(s, d, arrival)
	sc := e.classes[e.sessions[s].class].Stream
	m := &e.metrics[s]
	dev := &e.devs[d]
	start := at
	if dev.Free > start {
		start = dev.Free
	}
	paging := 0.0
	if e.plane != nil {
		pool := e.plane.pools[d]
		growSpill, ok := pool.Grow(s, sc.QueryTokens+sc.AnswerTokens, arrival)
		if !ok {
			m.QueriesDropped++
			e.observe(EventQueryDropped, arrival, s, latencyNone)
			e.resolve(s, at)
			return false
		}
		pageIn, pageOut := pool.Touch(s, arrival)
		paging = growSpill + pageIn + pageOut
		e.profPaging(d, start, growSpill+pageOut, pageIn)
	}
	// Prefill, then one decode step per answer token, each a solo step at
	// the session's budget scale.
	reqs := append(e.reqs[:0], hwsim.StepReq{
		NewTokens: sc.QueryTokens, KVLen: e.kv[s],
		Stage: hwsim.StageTextPhase, RatioScale: e.budgetOf(s),
	})
	total := e.sims[d].Step(reqs).Total
	e.kv[s] += sc.QueryTokens
	reqs[0].NewTokens = 1
	for i := 0; i < sc.AnswerTokens; i++ {
		reqs[0].KVLen = e.kv[s]
		total += e.sims[d].Step(reqs).Total
		e.kv[s]++
	}
	e.reqs = reqs[:0]
	dev.Free = start + paging + total
	dev.Busy += paging + total
	e.profCharge(paging + total)
	dev.ResidentKV += sc.QueryTokens + sc.AnswerTokens
	e.trackPeak(d)
	m.QueriesServed++
	e.devMetrics[d].QueriesServed++
	e.devMetrics[d].Batches++
	e.observe(EventQueryServed, arrival, s, dev.Free-arrival)
	e.served(s, d, arrival, start-arrival, dev.Free-arrival, false)
	e.observeBatch(at, d, s, 1, total)
	e.resolve(s, at)
	return true
}

// observeBatch emits an EventBatchFormed for a step of `size` items headed
// by session `head`, with the step's service time (excluding queued page
// movement) as Latency.
func (e *engine) observeBatch(at float64, d, head, size int, service float64) {
	if !e.observing() {
		return
	}
	e.emit(Event{
		Kind: EventBatchFormed, Time: at, Session: head,
		Class: e.classes[e.sessions[head].class].Name, Device: d,
		Latency: service, KV: e.kv[head], Batch: size,
	})
}
