package serve_test

import (
	"testing"

	"vrex/internal/scenario"
	"vrex/internal/serve"
)

// TestLazyArrivalsMatchEagerScheduleHooks covers the three ChurnConfig
// hooks: trace-replay.vrex sets Arrivals, Lifetime and Class from its
// recorded trace, diurnal.vrex sets Arrivals and Lifetime from its
// load-shape models.
func TestLazyArrivalsMatchEagerScheduleHooks(t *testing.T) {
	for _, name := range []string{"trace-replay", "diurnal"} {
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.ParseFile("../../scenarios/" + name + ".vrex")
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := sc.Config()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Churn.Arrivals == nil || cfg.Churn.Lifetime == nil {
				t.Fatalf("%s must set the Arrivals and Lifetime hooks", name)
			}
			if name == "trace-replay" && cfg.Churn.Class == nil {
				t.Fatal("trace-replay must set the Class hook")
			}
			if err := serve.CheckLazySchedule(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}
