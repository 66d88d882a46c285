package main

import (
	"fmt"
	"hash/crc64"
	"strings"

	"vrex/internal/cluster"
	"vrex/internal/scenario"
	"vrex/internal/serve"
	"vrex/internal/telemetry"
)

// fleetChurnScenario is diurnal open-loop session churn over eight V-Rex8
// devices with edf batching, lru spill and the hybrid degrader. The load
// keeps the fleet below saturation (utilization ~70%, SLO attainment ~75%)
// while both KV paging and budget degradation fire.
const fleetChurnScenario = `scenario fleet-churn
duration %g
seed %d
streams 8
devices 8
balancer least-loaded
scheduler edf
batch-max 8
slo-ms 700
kv-capacity 7
spill spill(evict=lru,pages=4)
degrade hybrid(lo=0.15,hi=0.4)
arrivals diurnal(rate=0.7,amp=0.8,period=60)
lifetime exp(mean=20)
class longctx(weight=0.3,slo-ms=600)
class 2fps(weight=0.5,slo-ms=900)
class 4fps(weight=0.2,slo-ms=500)
`

// clusterObservedScenario is a four-node, two-region cluster behind the
// least-loaded router: node 1 drains and recovers (its sessions migrate
// live), node 2 fails outright (lossy re-placement).
const clusterObservedScenario = `scenario cluster-observed
duration %g
seed %d
streams 12
scheduler edf
batch-max 8
slo-ms 700
nodes vrex8:2@us,vrex8:2@us,vrex8:2@eu,vrex8:2@eu
router least-loaded
fault drain(node=1,at=%g,recover=%g)
fault fail(node=2,at=%g)
arrivals poisson(rate=0.6)
lifetime exp(mean=20)
class 2fps(weight=0.6,slo-ms=600)
class 4fps(weight=0.2,slo-ms=900)
class longctx(weight=0.2,slo-ms=900)
`

// crc64Table hashes the exports: cheap enough that checking them costs
// little next to writing them.
var crc64Table = crc64.MakeTable(crc64.ECMA)

// serving runs several compiled serve or cluster configurations per unit,
// one per sub-seed, so a unit averages over arrival patterns as well as
// over host noise.
type serving struct {
	isCluster bool
	duration  float64
	fleet     []serve.Config
	clu       []cluster.Config
}

// subRuns is the number of engine runs per unit: sub-seeds seed*subRuns+j.
func subRuns(smoke bool) int {
	if smoke {
		return 2
	}
	return 12
}

// compile parses and validates a scenario, as vrex-sim -scenario does.
func compile(text string) (*scenario.Scenario, error) {
	sc, err := scenario.Parse("perfbench", []byte(text))
	if err != nil {
		return nil, err
	}
	return sc, sc.Validate()
}

func setupFleetChurn(seed uint64, smoke bool, tr *tracer) (bench, error) {
	dur := 300.0
	if smoke {
		dur = 40
	}
	b := &serving{duration: dur}
	k := subRuns(smoke)
	for j := 0; j < k; j++ {
		tr.begin(spCompile)
		sc, err := compile(fmt.Sprintf(fleetChurnScenario, dur, seed*uint64(k)+uint64(j)))
		var cfg serve.Config
		if err == nil {
			cfg, err = sc.Config()
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		b.fleet = append(b.fleet, cfg)
	}
	return b, nil
}

func setupClusterObserved(seed uint64, smoke bool, tr *tracer) (bench, error) {
	dur := 120.0
	if smoke {
		dur = 30
	}
	b := &serving{isCluster: true, duration: dur}
	k := subRuns(smoke)
	for j := 0; j < k; j++ {
		text := fmt.Sprintf(clusterObservedScenario, dur, seed*uint64(k)+uint64(j), dur/4, dur/2, dur*2/3)
		tr.begin(spCompile)
		sc, err := compile(text)
		var cfg cluster.Config
		if err == nil {
			cfg, err = sc.ClusterConfig()
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		b.clu = append(b.clu, cfg)
	}
	return b, nil
}

// refLimit: engine runs cannot be cut, so the reference is a whole unit.
func (s *serving) refLimit(bool) int { return 0 }

func (s *serving) unit(tr *tracer, workers, _ int) *unitResult {
	u := &unitResult{sim: map[string]float64{}}
	u.start()
	for i := 0; i < len(s.fleet)+len(s.clu); i++ {
		tr.setReq(int64(i))
		var counter *eventCounter
		if tr != nil {
			counter = &eventCounter{}
		}
		var res serve.Result
		if !s.isCluster {
			cfg := s.fleet[i]
			cfg.Workers = workers
			if tr != nil {
				cfg.Balancer = &tracedBalancer{cfg.Balancer, tr}
				cfg.Scheduler.Policy = &tracedScheduler{cfg.Scheduler.Policy, tr}
				if cfg.Degrade.Policy != nil {
					cfg.Degrade.Policy = &tracedController{cfg.Degrade.Policy, tr}
				}
				cfg.Observer = counter
			}
			tr.begin(spServeRun)
			res = serve.Run(cfg)
			tr.end()
			checkServeResult(u, res)
		} else {
			cfg := s.clu[i]
			cfg.Base.Workers = workers
			col := telemetry.NewCollector()
			prof := col.Attach(&cfg.Base)
			if tr != nil {
				cfg.Router = &tracedRouter{cfg.Router, tr}
				inner := cfg.NodeBalancer
				cfg.NodeBalancer = func() serve.Balancer { return &tracedBalancer{inner(), tr} }
				cfg.Base.Scheduler.Policy = &tracedScheduler{cfg.Base.Scheduler.Policy, tr}
				cfg.Base.Telemetry.Sink = &tracedSink{col, tr}
				cfg.Base.Observer = counter
			}
			tr.begin(spClusterRun)
			cres := cluster.Run(cfg)
			tr.end()
			res = cres.Serve
			checkServeResult(u, res)
			u.extra = hashString(u.extra, fmt.Sprintf("%+v|%+v", cres.PerNode, cres.Windows))
			u.extra = fnvMix(u.extra, exportAndCheck(u, col, prof, res, s.duration, tr))
			u.sim["cluster.migrations_live"] += float64(res.Migrations.Live)
			u.sim["cluster.migrations_lossy"] += float64(res.Migrations.Lossy)
			u.sim["telemetry.events"] += float64(len(col.Raw()))
		}
		recordServe(u, res, counter)
		u.mark(stepRun, res.Aggregate.FramesArrived)
	}
	finishServe(u, len(s.fleet)+len(s.clu))
	return u
}

// exportAndCheck writes the run's Prometheus metrics, spans, Chrome trace
// and phase profile, as vrex-sim -metrics-out -trace-out -profile does,
// into a hash, and checks the spans: every one balanced, and their served
// frames summing to the run's FramesServed.
func exportAndCheck(u *unitResult, col *telemetry.Collector, prof *serve.PhaseProfile, res serve.Result, duration float64, tr *tracer) uint64 {
	h := crc64.New(crc64Table)
	tr.begin(spMetrics)
	m := col.Metrics(1, duration)
	tr.end()
	tr.begin(spPrometheus)
	m.WritePrometheus(h)
	tr.end()
	tr.begin(spBuildSpans)
	spans, err := telemetry.BuildSpans(col.Events())
	tr.end()
	tr.begin(spWriteTrace)
	werr := col.WriteTrace(h)
	tr.end()
	tr.begin(spAttribution)
	telemetry.AttributionTable(prof).Render(h)
	tr.end()
	if werr != nil {
		u.fail(len(res.PerStream), "WriteTrace: %v", werr)
	}
	checkSpans(u, spans, err, res)
	return h.Sum64()
}

// checkSpans fails each session whose span is unbalanced, and every session
// when the spans cannot be built or their frame total disagrees with the
// engine's.
func checkSpans(u *unitResult, spans []telemetry.Span, err error, res serve.Result) {
	sessions := len(res.PerStream)
	if err != nil {
		u.fail(sessions, "spans: %v", err)
		return
	}
	frames := 0
	for i := range spans {
		if !spans[i].Balanced() {
			u.fail(1, "span of session %d unbalanced", spans[i].Session)
		}
		frames += spans[i].Frames
	}
	if frames != res.Aggregate.FramesServed {
		u.fail(sessions, "spans count %d served frames, the run %d", frames, res.Aggregate.FramesServed)
	}
}

// checkServeResult records one operation per session — its metrics hashed,
// failed unless arrived = served + dropped — and fails every session when
// the per-class sums disagree with Aggregate.
func checkServeResult(u *unitResult, res serve.Result) {
	for _, sm := range res.PerStream {
		ok := sm.FramesArrived == sm.FramesServed+sm.FramesDropped
		u.op(hashString(fnvOffset, fmt.Sprintf("%+v", sm)), ok)
	}
	var sum serve.ClassMetrics
	for _, cm := range res.PerClass {
		sum.Sessions += cm.Sessions
		sum.FramesArrived += cm.FramesArrived
		sum.FramesServed += cm.FramesServed
		sum.FramesDropped += cm.FramesDropped
		sum.QueriesServed += cm.QueriesServed
		sum.QueriesDropped += cm.QueriesDropped
		sum.DeadlineMisses += cm.DeadlineMisses
		sum.Degradations += cm.Degradations
		sum.Restorations += cm.Restorations
	}
	a := res.Aggregate
	var bad []string
	for _, c := range []struct {
		name      string
		sum, aggr int
	}{
		{"sessions", sum.Sessions, a.Sessions},
		{"sessions (per stream)", len(res.PerStream), a.Sessions},
		{"frames arrived", sum.FramesArrived, a.FramesArrived},
		{"frames served", sum.FramesServed, a.FramesServed},
		{"frames dropped", sum.FramesDropped, a.FramesDropped},
		{"queries served", sum.QueriesServed, a.QueriesServed},
		{"queries dropped", sum.QueriesDropped, a.QueriesDropped},
		{"deadline misses", sum.DeadlineMisses, a.DeadlineMisses},
		{"degradations", sum.Degradations, a.Degradations},
		{"restorations", sum.Restorations, a.Restorations},
	} {
		if c.sum != c.aggr {
			bad = append(bad, fmt.Sprintf("%s %d != %d", c.name, c.sum, c.aggr))
		}
	}
	if len(bad) > 0 {
		u.fail(len(res.PerStream), "class sums disagree with Aggregate: %s", strings.Join(bad, ", "))
	}
	u.extra = hashString(u.extra, fmt.Sprintf("%+v|%+v|%+v|%+v|%+v|%v|%v",
		res.PerClass, a, res.PerDevice, res.Memory, res.Migrations, res.RealTime, res.Utilization))
}

// recordServe adds one run's simulated outcomes and layer counts to the
// unit's totals.
func recordServe(u *unitResult, res serve.Result, counter *eventCounter) {
	a := res.Aggregate
	add := func(k string, v float64) { u.sim[k] += v }
	add("sim_slo_frames", a.SLOAttained*float64(a.FramesArrived))
	add("sim_arrived", float64(a.FramesArrived))
	add("sim_goodput_fps", a.Goodput)
	add("sim_utilization_pct", 100*res.Utilization)
	add("sim_dropped", float64(a.FramesDropped))
	add("sim_served", float64(a.FramesServed))
	for _, d := range res.PerDevice {
		add("serve.batches", float64(d.Batches))
	}
	add("serve.queue_wait_p50_sim_ms", 1000*a.QueueP50)
	add("kvpool.pages_in", float64(res.Memory.PagesIn))
	add("kvpool.pages_out", float64(res.Memory.PagesOut))
	add("kvpool.page_sim_s", res.Memory.PageInTime+res.Memory.PageOutTime)
	add("kvpool.sessions_queued", float64(res.Memory.SessionsQueued))
	add("degrade.steps", float64(a.Degradations+a.Restorations))
	if counter != nil {
		for _, k := range eventKinds() {
			add(eventMetric(k), float64(counter.n[k]))
			add("serve.events", float64(counter.n[k]))
		}
	}
}

// finishServe turns the unit's totals over runs into pooled outcomes:
// SLO attainment over every arrived frame, and per-run means where a
// quantity is a rate or a percentile.
func finishServe(u *unitResult, runs int) {
	m := u.sim
	m["sim_slo_pct"] = 100 * ratio(m["sim_slo_frames"], m["sim_arrived"])
	m["sim_drop_pct"] = 100 * ratio(m["sim_dropped"], m["sim_arrived"])
	m["serve.frames_per_batch"] = ratio(m["sim_served"], m["serve.batches"])
	for _, k := range []string{"sim_goodput_fps", "sim_utilization_pct", "serve.queue_wait_p50_sim_ms"} {
		m[k] /= float64(runs)
	}
}

func eventMetric(k serve.EventKind) string {
	return "serve.events." + strings.ReplaceAll(k.String(), "-", "_")
}
