package serve

import (
	"runtime"
	"testing"

	"vrex/internal/degrade"
	"vrex/internal/hwsim"
	"vrex/internal/kvpool"
)

// fleetChurnConfig is a churning fleet run shaped like the fleet-churn
// benchmark workload: eight V-Rex8 devices behind least-loaded placement,
// edf batching, lru spill, the hybrid degrader, and Poisson session churn
// with exponential lifetimes over a three-class mix.
func fleetChurnConfig(tb testing.TB) Config {
	tb.Helper()
	bal, err := NewBalancer("least-loaded")
	if err != nil {
		tb.Fatal(err)
	}
	spill, err := kvpool.ParseSpill("spill(evict=lru,pages=4)")
	if err != nil {
		tb.Fatal(err)
	}
	dp, err := degrade.Parse("hybrid(lo=0.15,hi=0.4)")
	if err != nil {
		tb.Fatal(err)
	}
	var classes []StreamClass
	for i, c := range []struct {
		name        string
		weight, slo float64
	}{{"longctx", 0.3, 0.6}, {"2fps", 0.5, 0.9}, {"4fps", 0.2, 0.5}} {
		shape, ok := ClassByName(c.name)
		if !ok {
			tb.Fatalf("unknown class %q", c.name)
		}
		classes = append(classes, StreamClass{Name: c.name, Weight: c.weight, Stream: shape, SLO: c.slo, Priority: i})
	}
	return Config{
		Dev: hwsim.VRex8(), Pol: hwsim.ReSVModel(),
		Streams: 8, Devices: 8, Duration: 300, Classes: classes,
		Balancer:      bal,
		Churn:         ChurnConfig{ArrivalRate: 0.7, MeanLifetime: 20},
		KV:            KVConfig{Capacity: 7e9, Spill: spill},
		Scheduler:     SchedulerConfig{Policy: mustScheduler(tb, "edf"), BatchMax: 8, SLO: 0.7},
		Degrade:       DegradeConfig{Policy: dp.Controller, Step: dp.Step, Floor: dp.Floor},
		DropThreshold: 4, Seed: 1, Workers: 1,
	}
}

// BenchmarkServeRun times the whole engine on one fixed churning fleet run
// per iteration and reports the cost per arrived frame.
func BenchmarkServeRun(b *testing.B) {
	cfg := fleetChurnConfig(b)
	frames := Run(cfg).Aggregate.FramesArrived
	if frames == 0 {
		b.Fatal("benchmark run has no frames")
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		Run(cfg)
	}
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(frames)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/frame")
}
