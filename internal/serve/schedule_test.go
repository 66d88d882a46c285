package serve

import (
	"fmt"
	"sort"
	"testing"

	"vrex/internal/hwsim"
	"vrex/internal/mathx"
	"vrex/internal/parallel"
)

// eagerSchedule is the reference for the lazy arrival generators: the whole
// run's arrival and tick schedule built up front. Every session's start,
// frames, queries and end are generated (concurrently, one session per
// task) and numbered in per-session blocks in session order, and the
// controller ticks are numbered after every block.
func eagerSchedule(cfg Config) []event {
	classes := cfg.classes()
	sessions := buildSessions(cfg, classes)
	perSession := parallel.Map(cfg.Workers, len(sessions), func(s int) []event {
		sess := sessions[s]
		sc := classes[sess.class].Stream
		rng := mathx.NewRNG(sess.seed)
		interval := 1 / sc.FPS
		evs := []event{{at: sess.start, session: s, kind: evStart}}
		phase := rng.Float64() * interval
		for t := sess.start + phase; t < sess.end; t += interval {
			evs = append(evs, event{at: t, session: s, kind: evFrame})
		}
		if sc.QueryEvery > 0 {
			for t := sess.start + sc.QueryEvery*(0.5+rng.Float64()); t < sess.end; t += sc.QueryEvery {
				evs = append(evs, event{at: t, session: s, kind: evQuery})
			}
		}
		return append(evs, event{at: sess.end, session: s, kind: evEnd})
	})
	var events []event
	seq := 0
	for _, evs := range perSession {
		for _, ev := range evs {
			ev.seq = seq
			seq++
			events = append(events, ev)
		}
	}
	if cfg.Control.enabled() {
		for _, t := range cfg.Control.tickTimes(cfg.Duration) {
			events = append(events, event{at: t, session: -1, kind: evControl, seq: seq})
			seq++
		}
	}
	return events
}

// checkLazySchedule runs cfg's event loop and checks it against the eager
// schedule: device wake-ups number from the schedule's length up; the
// arrivals and ticks it pops, in pop order, are the eager schedule sorted by
// (at, seq), field for field; and the event heap never holds more than one
// entry per session, one per device and one tick.
func checkLazySchedule(cfg Config) error {
	want := eagerSchedule(cfg)
	sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
	e := newEngine(cfg)
	if e.stepSeq != len(want) {
		return fmt.Errorf("wake-ups number from %d, want %d", e.stepSeq, len(want))
	}
	bound := len(e.sessions) + e.nDev + 1
	var got []event
	for e.events.len() > 0 {
		if n := e.events.len(); n > bound {
			return fmt.Errorf("event heap holds %d entries, bound %d (%d sessions, %d devices)",
				n, bound, len(e.sessions), e.nDev)
		}
		ev := e.pop()
		if ev.kind != evStep {
			got = append(got, ev)
		}
		e.handle(ev)
	}
	if len(got) != len(want) {
		return fmt.Errorf("popped %d arrivals and ticks, eager schedule has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("pop %d: lazy %+v, eager %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestLazyArrivalsMatchEagerSchedule pins the lazy generators to the eager
// schedule across the shapes that change it: a closed population with
// queries, Poisson churn with lifetimes under memory pressure, query-free
// classes, controller ticks (periodic and explicit, with a duplicate and an
// out-of-window time) driving drains and recoveries, and the fleet-churn
// benchmark run. The Churn hooks are covered through the committed scenario
// files in scenario_schedule_test.go.
func TestLazyArrivalsMatchEagerSchedule(t *testing.T) {
	closed := mixConfig(6, 2)
	for i := range closed.Classes {
		closed.Classes[i].Stream.QueryEvery = 4
	}

	churn := kvConfig(6, 3, 40*pageBytes250, "spill(evict=lru,pages=8)")
	churn.Churn = ChurnConfig{ArrivalRate: 0.8, MeanLifetime: 6}
	churn.Scheduler = SchedulerConfig{Policy: mustScheduler(t, "edf"), BatchMax: 4, SLO: 1}

	noQueries := mixConfig(4, 2) // mixConfig's classes are query-free

	ticked := baseConfig(hwsim.VRex8(), hwsim.ReSVModel(), 5)
	ticked.Devices = 3
	ticked.Stream.QueryEvery = 3
	ticked.Churn = ChurnConfig{ArrivalRate: 0.5, MeanLifetime: 8}
	ticked.Scheduler = SchedulerConfig{Policy: mustScheduler(t, "fifo")}
	ticked.Control = ControlConfig{
		Interval: 2.5,
		At:       []float64{5, 7.25, 12, ticked.Duration + 1},
		Controller: func(now float64, ops *FleetOps) {
			switch {
			case now == 5:
				ops.Drain(1)
			case now == 12:
				ops.Activate(1)
			}
		},
	}

	for name, cfg := range map[string]Config{
		"closed population":    closed,
		"poisson churn":        churn,
		"query-free":           noQueries,
		"control ticks":        ticked,
		"fleet-churn workload": fleetChurnConfig(t),
	} {
		t.Run(name, func(t *testing.T) {
			if err := checkLazySchedule(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestArrivalsTieOrder pins the generator's tie-break, which random phases
// almost never exercise: a frame and a query at the same instant come out
// frame first, as their seqs order them, and the end follows both.
func TestArrivalsTieOrder(t *testing.T) {
	a := arrivals{frameAt: 1, queryAt: 1, interval: 1, every: 2, end: 3, base: 10, frames: 2, queries: 1}
	want := []event{
		{at: 1, session: 4, kind: evFrame, seq: 11},
		{at: 1, session: 4, kind: evQuery, seq: 13},
		{at: 2, session: 4, kind: evFrame, seq: 12},
		{at: 3, session: 4, kind: evEnd, seq: 14},
	}
	for i, w := range want {
		if got := a.next(4); got != w {
			t.Fatalf("event %d: %+v, want %+v", i, got, w)
		}
	}
}
