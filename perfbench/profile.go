package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuBuckets folds profiled functions into per-package shares; the first
// matching prefix wins, and anything unmatched lands in cpu.other_pct.
var cpuBuckets = []struct{ metric, prefix string }{
	{"cpu.tensor_pct", "vrex/internal/tensor"},
	{"cpu.mathx_pct", "vrex/internal/mathx"},
	{"cpu.wicsum_pct", "vrex/internal/wicsum"},
	{"cpu.hashbit_pct", "vrex/internal/hashbit"},
	{"cpu.kvcache_pct", "vrex/internal/kvcache"},
	{"cpu.model_pct", "vrex/internal/model"},
	{"cpu.core_pct", "vrex/internal/core"},
	{"cpu.vision_pct", "vrex/internal/vision"},
	{"cpu.workload_pct", "vrex/internal/workload"},
	{"cpu.hwsim_pct", "vrex/internal/hwsim"},
	{"cpu.kvpool_pct", "vrex/internal/kvpool"},
	{"cpu.serve_pct", "vrex/internal/serve"},
	{"cpu.degrade_pct", "vrex/internal/degrade"},
	{"cpu.cluster_pct", "vrex/internal/cluster"},
	{"cpu.telemetry_pct", "vrex/internal/telemetry"},
	{"cpu.perfbench_pct", "main"},
	{"cpu.container_heap_pct", "container/heap"},
	{"cpu.encoding_json_pct", "encoding/json"},
	{"cpu.math_pct", "math"},
	{"cpu.sort_pct", "sort"},
	{"cpu.sort_pct", "slices"},
	{"cpu.runtime_pct", "runtime"},
	{"cpu.runtime_pct", "internal/runtime"},
}

const cpuOther = "cpu.other_pct"

// cpuMetricNames lists every cpu.* metric once, in bucket order.
func cpuMetricNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, b := range cpuBuckets {
		if !seen[b.metric] {
			seen[b.metric] = true
			names = append(names, b.metric)
		}
	}
	return append(names, cpuOther)
}

// startCPUProfile profiles the process into path until the returned stop
// function runs.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// foldProfile runs the installed `go tool pprof -top` over a CPU profile
// and sums each function's flat (self) share into its package bucket.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out)), nil
}

// foldTop parses `pprof -top` text: rows of flat, flat%, sum%, cum, cum%
// and the function name.
func foldTop(text string) map[string]float64 {
	shares := map[string]float64{}
	for _, name := range cpuMetricNames() {
		shares[name] = 0
	}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[cpuBucket(funcPackage(strings.Join(f[5:], " ")))] += pct
	}
	return shares
}

// funcPackage returns the import path of a profiled function name such as
// "vrex/internal/serve.(*engine).run" or "slices.pdqsort[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func cpuBucket(pkg string) string {
	for _, b := range cpuBuckets {
		if pkg == b.prefix || strings.HasPrefix(pkg, b.prefix+"/") {
			return b.metric
		}
	}
	return cpuOther
}
