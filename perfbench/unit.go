package main

import (
	"fmt"
	"time"
)

// bench is one workload after set-up: unit runs one unit of work — the
// fixed amount of work the timed loop repeats — with the given kernel or
// engine worker count. limit > 0 stops after that many operations (the
// worker-invariance reference runs a prefix); it is ignored where a unit
// cannot be cut.
type bench interface {
	unit(tr *tracer, workers, limit int) *unitResult
	refLimit(smoke bool) int
}

// unitResult is what one unit of work produced: per-operation output
// hashes (in order), check outcomes, host-time samples and the exact
// counts the per-layer report needs.
type unitResult struct {
	ops       []uint64
	attempted int
	failed    int
	// problems are failed checks that concern the whole unit rather than
	// one operation.
	problems []string
	// extra hashes unit-level outputs (aggregates, exports) into the digest.
	extra uint64
	// wall and allocBytes are the unit's host time and heap bytes
	// allocated, set by the timed loop.
	wall       time.Duration
	allocBytes uint64

	// frames processed: forwarded by the model, or simulated arrivals.
	frames int
	// steps time the unit as contiguous intervals; every full unit of one
	// run has the same step sequence, so step i can be compared across
	// units.
	steps []step
	last  time.Time
	// functional workloads
	questions, correct int
	sel                selectionCounts
	// serving workloads: exact outcome and layer counts by metric name
	sim map[string]float64
}

// stepKind classifies a timed step of a unit.
type stepKind uint8

const (
	stepOther    stepKind = iota // construction, generation, bookkeeping
	stepFrame                    // one frame: Forward plus its checks
	stepQuestion                 // one question: text Forward, answer read, checks
	stepRun                      // one engine run with its checks and exports
)

type step struct {
	kind   stepKind
	frames int
	ms     float64
}

// start opens the unit's first step.
func (u *unitResult) start() { u.last = time.Now() }

// mark closes the current step, which processed frames frames.
func (u *unitResult) mark(kind stepKind, frames int) {
	now := time.Now()
	u.steps = append(u.steps, step{kind, frames, float64(now.Sub(u.last).Nanoseconds()) / 1e6})
	u.last = now
	u.frames += frames
}

// stepMeans folds the same step of every unit into its mean time across
// the units; every full unit runs the same sequence of steps.
func stepMeans(units []*unitResult) ([]step, error) {
	n := len(units[0].steps)
	mean := append([]step(nil), units[0].steps...)
	for i, u := range units[1:] {
		if len(u.steps) != n {
			return nil, fmt.Errorf("unit %d ran %d steps, unit 1 ran %d", i+2, len(u.steps), n)
		}
		for j, st := range u.steps {
			mean[j].ms += st.ms
		}
	}
	for j := range mean {
		mean[j].ms /= float64(len(units))
	}
	return mean, nil
}

type selectionCounts struct {
	frameSel, frameCand, textSel, textCand int64
	examined                               float64
	calls                                  int64
	tokens, clusters                       int64
}

// op records one operation's output hash and whether its checks passed.
func (u *unitResult) op(h uint64, ok bool) {
	u.ops = append(u.ops, h)
	u.attempted++
	if !ok {
		u.failed++
	}
}

// fail records a unit-level check failure that fails n operations.
func (u *unitResult) fail(n int, format string, args ...any) {
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
	u.failed += n
	if u.failed > u.attempted {
		u.failed = u.attempted
	}
}

// digest folds every output of the unit into one hash.
func (u *unitResult) digest() uint64 {
	h := fnvMix(fnvOffset, u.extra)
	for _, o := range u.ops {
		h = fnvMix(h, o)
	}
	return h
}

// mismatches counts the operations of u whose outputs differ from ref's,
// comparing only ref's operations when ref ran a prefix.
func mismatches(ref, u *unitResult, prefix bool) int {
	n := 0
	for i, o := range ref.ops {
		if i >= len(u.ops) || u.ops[i] != o {
			n++
		}
	}
	if !prefix {
		if len(u.ops) != len(ref.ops) {
			n += abs(len(u.ops) - len(ref.ops))
		}
		if n == 0 && u.extra != ref.extra {
			n = len(u.ops)
		}
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

const fnvOffset = 14695981039346656037

// fnvMix folds a 64-bit word into an FNV-1a hash byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// hashString folds a string into an FNV-1a hash.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
