package hwsim

// StepReq is one stream's contribution to a coalesced hardware step: n new
// tokens attending to that stream's own cached KV, at the given stage. The
// serving plane's continuous-batching scheduler builds one StepReq per
// co-scheduled frame.
type StepReq struct {
	// NewTokens is the stream's new tokens this step (tokens-per-frame for a
	// video frame, prompt length for a query prefill, 1 for a decode token).
	NewTokens int
	// KVLen is the stream's cached context length at step start.
	KVLen int
	// Stage selects the policy's fetch ratio and, for StageFramePhase, the
	// vision tower cost.
	Stage StageKind
	// RatioScale multiplies the policy's fetch ratio for this stream — the
	// degradation plane's per-session budget scale: a session at budget
	// scale b retrieves b times the tokens per chunk and keeps b times the
	// offloaded working set resident. 0 means unscaled (1), so the zero
	// value prices identically to a request without the field.
	RatioScale float64
}

// scale resolves RatioScale's zero-means-unscaled convention.
func (r StepReq) scale() float64 {
	if r.RatioScale == 0 {
		return 1
	}
	return r.RatioScale
}

// stepCost accumulates the per-stream cost terms of one step (addStreams)
// until price charges the per-step parts once.
type stepCost struct {
	// resident is the device-memory footprint: weights plus every stream's
	// resident KV (workspace is added at the OOM check).
	resident float64
	// streams counts priced streams, rows their new tokens, frames the
	// frame-stage streams (vision tower inputs).
	streams, rows, frames int
	attnFLOPs, attnBytes  float64
	// predDense is the Q x K_cluster^T score FLOPs; predIrregularOps the
	// clustering/selection ops; topkLaunch the per-row GPU sort kernels;
	// dre the DRE busy time.
	predDense, predIrregularOps, topkLaunch, dre float64
	fetchBytes                                   float64
	fetchSegs                                    int
}

// Chunk simulates one chunk of n new tokens per stream against a cache of
// kvLen tokens, at the given batch size and stage: batch identical streams
// priced as one step.
//
//vrex:noalloc
func (s *Sim) Chunk(n, kvLen, batch int, stage StageKind) Breakdown {
	if batch <= 0 || n <= 0 {
		return Breakdown{}
	}
	c := stepCost{resident: s.LLM.WeightBytes()}
	s.addStreams(&c, n, kvLen, batch, stage, 1)
	return s.price(&c)
}

// Step simulates one continuous-batching hardware step over a heterogeneous
// batch of streams. Unlike Chunk's homogeneous batch parameter (every stream
// at the same KV length), each request carries its own cache length, stage
// and budget scale, which is what a real multi-stream scheduler produces.
//
// Cost structure — the per-step vs per-token split that makes batching pay:
//
//   - Per step (charged once, amortised across the batch): the weight read
//     of every linear layer, the vision tower's weight traffic, and the
//     fixed host-side frame overhead (decode/resize for co-batched frames
//     pipeline on host cores while the accelerator runs).
//   - Per token / per stream (summed over requests): linear FLOPs,
//     attention FLOPs and KV bytes against each stream's own cache, KV
//     prediction, and KV fetch traffic.
//
// Chunk and Step share one kernel, so a one-request step prices exactly as
// Chunk at batch 1. Requests with no new tokens are ignored. The caller is
// responsible for per-stream OOM admission (see Sim.OOM); a step whose
// combined resident footprint exceeds device memory reports OOM with no
// cost, like Chunk.
//
//vrex:noalloc
func (s *Sim) Step(reqs []StepReq) Breakdown {
	c := stepCost{resident: s.LLM.WeightBytes()}
	for _, r := range reqs {
		if r.NewTokens > 0 {
			s.addStreams(&c, r.NewTokens, r.KVLen, 1, r.Stage, r.scale())
		}
	}
	if c.streams == 0 {
		return Breakdown{}
	}
	return s.price(&c)
}

// OOM reports whether stream r alone, at its KV length and budget scale,
// would exceed device memory — the same resident-footprint check Chunk and
// Step apply before pricing (NewTokens and Stage do not enter it). The
// serving scheduler uses it to admit frames per stream before pricing the
// step.
//
//vrex:noalloc
func (s *Sim) OOM(r StepReq) bool {
	return s.overCapacity(s.LLM.WeightBytes()+s.residentKV(r.KVLen, 1, r.scale()), 1)
}

// residentKV is the device-memory KV footprint of copies streams at kvLen
// cached tokens and budget scale.
func (s *Sim) residentKV(kvLen, copies int, scale float64) float64 {
	kvBytes := s.LLM.KVBytesPerToken() * float64(kvLen) * float64(copies) * s.Pol.quantFactor()
	if s.Pol.Offloads {
		// Only the fetched working set + recent window stays resident
		// (double-buffered).
		return kvBytes * (s.Pol.FrameRatio * scale) * 2 / float64(s.LLM.Layers)
	}
	return kvBytes
}

// overCapacity reports whether a resident footprint plus the activation
// workspace (kvWorkspaceBytes, growing mildly with the stream count) exceeds
// device memory.
func (s *Sim) overCapacity(resident float64, streams int) bool {
	return resident+(kvWorkspaceBytes+0.1e9*float64(streams)) > s.Dev.MemCapacity
}

// addStreams adds copies identical streams — n new tokens each against
// kvLen cached tokens at the given stage, fetch ratio scaled by scale — to
// the step's per-stream terms: resident KV, attention, KV prediction (DRE
// cycles included) and fetch bytes/segments.
//
//vrex:noalloc
func (s *Sim) addStreams(c *stepCost, n, kvLen, copies int, stage StageKind, scale float64) {
	layers := float64(s.LLM.Layers)
	rows := n * copies
	c.streams += copies
	c.rows += rows
	if stage == StageFramePhase {
		c.frames += copies
	}
	c.resident += s.residentKV(kvLen, copies, scale)

	// Attention stays per stream: each stream reads its own cache.
	ratio := s.Pol.ratio(stage) * scale
	attended := int(ratio*float64(kvLen)+0.5) + n
	c.attnFLOPs += s.LLM.LayerAttnFLOPs(n, attended) * float64(copies) * layers
	c.attnBytes += s.LLM.LayerKVBytes(attended) * float64(copies) * layers * s.Pol.quantFactor()

	// --- KV prediction ---
	cand := float64(kvLen)
	if s.Pol.ClusterCompression > 1 {
		cand /= s.Pol.ClusterCompression
	}
	nCand := int(cand + 0.5)
	c.predDense += s.LLM.PredFLOPs(rows, nCand) * layers
	switch s.Pol.Pred {
	case PredTopK:
		// GPU top-k: score pass is dense; the sort/selection pass touches
		// every candidate with data-dependent control flow. Per-row sort
		// kernels add a fixed launch + element-linear cost (GPU-friendly
		// but still one kernel per query row per layer).
		c.predIrregularOps += 8 * float64(rows) * cand * layers
		c.topkLaunch += float64(rows) * (60e-6 + cand*0.5e-9) * layers
	case PredReSV:
		// Hamming clustering (bit ops over clusters) + WiCSum thresholding.
		hamOps := float64(rows) * cand * defaultNHp / 8
		wicOps := 6 * float64(rows*s.LLM.Heads) * cand * wtuExamineFraction(s.ExamineFraction)
		c.predIrregularOps += (hamOps + wicOps) * layers
	case PredNone:
		// no prediction pass: nothing irregular to charge
	}
	if s.Pol.Pred != PredNone && !s.Pol.PredOnDevice {
		// DRE path: clustering + thresholding run on HCU/WTU concurrently.
		cyc := DRECycles{
			HCU: HCUCycles(rows, nCand, defaultNHp, s.Dev.Cores),
			WTU: WTUCycles(rows*s.LLM.Heads, nCand, s.Dev.Cores,
				wtuExamineFraction(s.ExamineFraction)),
			KVMU: KVMUCycles(rows, s.fetchSegments(kvLen, copies, ratio)),
		}
		c.dre += DRETime(cyc, s.Dev.Freq) * layers
	}

	// --- KV fetch: selected tokens cross the link for each cache ---
	if s.Pol.Offloads && kvLen > 0 {
		reuse := s.Pol.ResidentReuse
		if reuse < 0 {
			reuse = 0
		}
		if reuse > 1 {
			reuse = 1
		}
		fetchTokens := ratio * (1 - reuse) * float64(kvLen) * float64(copies) * layers
		c.fetchBytes += fetchTokens * 2 * float64(s.LLM.KVDim()) * s.LLM.BytesPerElem * s.Pol.quantFactor()
		c.fetchSegs += int(float64(s.fetchSegments(kvLen, copies, ratio)) * (1 - reuse) * layers)
	}
}

// price charges the step's per-step parts once over the accumulated
// per-stream terms: the OOM check, the linear layers (FLOPs scale with the
// step's new tokens, weights are read once), prediction and fetch with the
// Fig. 5 overlap, the vision tower, energy, and the phase account.
//
//vrex:noalloc
func (s *Sim) price(c *stepCost) Breakdown {
	var b Breakdown
	if s.overCapacity(c.resident, c.streams) {
		b.OOM = true
		return b
	}
	layers := float64(s.LLM.Layers)
	linFLOPs := s.LLM.LayerLinearFLOPs(c.rows) * layers
	linBytes := s.LLM.LayerWeightBytes() * layers
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, linBytes)
	b.AttnTime = s.rooflineTime(c.attnFLOPs, s.Dev.AttnEff, c.attnBytes)
	b.UsefulFLOPs = linFLOPs + c.attnFLOPs

	if s.Pol.Pred != PredNone {
		if s.Pol.PredOnDevice {
			irr := c.predIrregularOps / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if s.Pol.Pred == PredTopK {
				irr += c.topkLaunch
			}
			if s.Pol.Pred == PredReSV {
				// ReSV's clustering/thresholding is conditional and
				// data-dependent (Sec. V): on a GPU it serialises into
				// latency-bound chains instead of wide kernels. Top-k, by
				// contrast, is a "computationally regular and GPU-friendly
				// primitive" (Sec. I) and keeps the parallel rate above.
				irr = c.predIrregularOps / gpuSerialOpsPerSec
			}
			b.PredRaw = c.predDense/(s.Dev.PeakFLOPS*s.Dev.DenseEff) + irr
			// Prediction shares the device with LLM kernels: fully exposed.
			b.PredExposed = b.PredRaw
		} else {
			// DRE path: Q x K_cluster^T runs on the LXE (dense, cheap).
			lxe := c.predDense / (s.Dev.PeakFLOPS * s.Dev.DenseEff)
			b.DRETime = c.dre
			b.PredRaw = lxe + c.dre
			// The LXE score matmul is exposed (tiny); DRE work overlaps with
			// attention+FFN and is exposed only if it exceeds them.
			b.PredExposed = lxe
			if over := c.dre - (b.LinearTime + b.AttnTime); over > 0 {
				b.PredExposed += over
			}
		}
	}

	if c.fetchBytes > 0 {
		b.FetchBytes = c.fetchBytes
		linkTime := s.Dev.Link.TransferTime(c.fetchBytes, c.fetchSegs)
		if s.Dev.OffloadSSD != nil {
			if st := s.Dev.OffloadSSD.ReadTime(c.fetchBytes, c.fetchSegs); st > linkTime {
				linkTime = st
			}
		}
		b.FetchRaw = linkTime
		if s.Pol.PrefetchOverlap {
			// Prefetch overlap (Fig. 5 ii/iii): fetch for layer l+1 overlaps
			// layer l compute (+ exposed on-device prediction).
			cover := b.LinearTime + b.AttnTime + b.PredExposed
			if b.FetchRaw > cover {
				b.FetchExposed = b.FetchRaw - cover
			}
		} else {
			// Vanilla serial load (Fig. 5 i).
			b.FetchExposed = b.FetchRaw
		}
	}

	// --- Vision tower + host-side frame handling (frame streams only) ---
	if c.frames > 0 && s.VisionCost != nil {
		vf := s.VisionCost.FLOPs * float64(c.frames)
		b.VisionTime = s.rooflineTime(vf, s.Dev.DenseEff, s.VisionCost.WeightBytes)
		b.VisionTime += s.Dev.FrameOverhead
		b.UsefulFLOPs += vf
	}

	b.Total = b.VisionTime + b.LinearTime + b.AttnTime + b.PredExposed + b.FetchExposed
	b.EnergyJ = s.energy(b)
	if s.Phases != nil {
		s.Phases.add(&b)
	}
	return b
}
