package hwsim

import (
	"math"

	"vrex/internal/vision"
)

// Breakdown is the simulated cost of processing one chunk (a video frame or
// a text step) end to end. "Raw" components are busy times of each engine;
// "Exposed" components are what remains on the critical path after the
// Fig. 5 overlap pipeline. Total is the critical-path latency.
type Breakdown struct {
	// VisionTime is the vision tower + projector time (frame stage only).
	VisionTime float64
	// LinearTime is QKVO+FFN GEMM time across layers.
	LinearTime float64
	// AttnTime is attention kernel time across layers.
	AttnTime float64
	// PredRaw is KV-prediction busy time (wherever it runs).
	PredRaw float64
	// PredExposed is prediction time on the critical path (zero when the
	// DRE hides it).
	PredExposed float64
	// FetchRaw is the KV fetch busy time on the link/SSD.
	FetchRaw float64
	// FetchExposed is fetch time on the critical path after overlap.
	FetchExposed float64
	// DRETime is the DRE busy time (V-Rex only).
	DRETime float64
	// Total is the end-to-end chunk latency in seconds.
	Total float64
	// EnergyJ is the system energy for the chunk in joules.
	EnergyJ float64
	// UsefulFLOPs counts LLM compute (linear + attention), the numerator of
	// the efficiency metrics.
	UsefulFLOPs float64
	// FetchBytes is the KV traffic across the link.
	FetchBytes float64
	// OOM marks that the resident footprint exceeded device memory.
	OOM bool
}

// LLMTime returns the exposed LLM compute time (linear + attention).
func (b Breakdown) LLMTime() float64 { return b.LinearTime + b.AttnTime }

// RetrievalExposed returns the exposed retrieval overhead (prediction +
// fetch on the critical path).
func (b Breakdown) RetrievalExposed() float64 { return b.PredExposed + b.FetchExposed }

// Sim evaluates chunk latencies for one device + LLM + policy combination.
type Sim struct {
	Dev DeviceSpec
	LLM LLMSpec
	Pol PolicyModel
	// VisionCost is charged once per frame chunk (nil disables).
	VisionCost *vision.ViTCost
	// ExamineFraction overrides the WTU early-exit examine fraction
	// (<= 0 uses the default 16%).
	ExamineFraction float64
	// Phases, when non-nil, accumulates each priced chunk/step into a
	// per-phase time account (telemetry plane).
	Phases *PhaseAccount
}

// NewSim builds a simulator with the SigLIP vision cost attached.
func NewSim(dev DeviceSpec, llm LLMSpec, pol PolicyModel) *Sim {
	vc := vision.SigLIPViTL384Cost(10)
	return &Sim{Dev: dev, LLM: llm, Pol: pol, VisionCost: &vc}
}

// rooflineTime returns max(flops-bound, bytes-bound) kernel time.
func (s *Sim) rooflineTime(flops, eff, bytes float64) float64 {
	t := 0.0
	if flops > 0 && eff > 0 {
		t = flops / (s.Dev.PeakFLOPS * eff)
	}
	if bytes > 0 {
		if bt := s.Dev.Mem.AccessTime(bytes); bt > t {
			t = bt
		}
	}
	return t
}

// gpuSerialOpsPerSec is the effective GPU rate on serialised, data-dependent
// operation chains (dependent memory loads, divergent branches, dynamic
// output sizes). Calibrated so ReSV-on-GPU's KV prediction consumes ~48% of
// frame latency at 40K cache (Fig. 16's AGX+ReSV measurement).
const gpuSerialOpsPerSec = 5e7

func wtuExamineFraction(override float64) float64 {
	if override > 0 && override <= 1 {
		return override
	}
	return wtuExamineFr
}

// fetchSegments returns the number of contiguous segments for one layer's
// fetch of ratio*kvLen tokens per stream.
func (s *Sim) fetchSegments(kvLen, batch int, ratio float64) int {
	tokens := ratio * float64(kvLen) * float64(batch)
	if tokens <= 0 {
		return 0
	}
	segTokens := s.Pol.SegmentTokens
	if segTokens < 1 {
		segTokens = 1
	}
	return int(math.Ceil(tokens / segTokens))
}

// energy integrates the component-power model over the chunk's busy times.
func (s *Sim) energy(b Breakdown) float64 {
	active := s.Dev.Power - s.Dev.IdlePower
	if active < 0 {
		active = 0
	}
	computeBusy := b.VisionTime + b.LinearTime + b.AttnTime + b.PredExposed
	e := s.Dev.IdlePower*b.Total + active*computeBusy
	e += s.Dev.Link.Power() * b.FetchRaw
	if s.Dev.OffloadSSD != nil {
		e += s.Dev.OffloadSSD.ActivePower * b.FetchRaw
	}
	e += s.Dev.Mem.AccessEnergy(b.FetchBytes)
	return e
}

// FrameLatency simulates processing one video frame (tokensPerFrame new
// tokens) against a kvLen cache at the given batch.
func (s *Sim) FrameLatency(tokensPerFrame, kvLen, batch int) Breakdown {
	return s.Chunk(tokensPerFrame, kvLen, batch, StageFramePhase)
}

// TPOT simulates one generated output token (time per output token).
func (s *Sim) TPOT(kvLen, batch int) Breakdown {
	return s.Chunk(1, kvLen, batch, StageTextPhase)
}

// GOPSPerWatt returns the chunk's energy-efficiency metric.
func (b Breakdown) GOPSPerWatt() float64 {
	if b.EnergyJ <= 0 {
		return 0
	}
	return b.UsefulFLOPs / 1e9 / b.EnergyJ
}

// FPS returns frames/second implied by the chunk latency.
func (b Breakdown) FPS() float64 {
	if b.Total <= 0 {
		return 0
	}
	return 1 / b.Total
}
