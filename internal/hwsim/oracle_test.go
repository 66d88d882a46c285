package hwsim

import (
	"fmt"
	"testing"
)

// The ref* methods below are the two pricing paths that preceded the shared
// addStreams/price kernel, kept verbatim (renamed only) as a reference
// oracle: refChunk priced homogeneous batches, refStep's multi-request path
// carried its own copy of the per-stream formulas, and degraded budgets went
// through refScaled copies. TestPricingMatchesOracle pins the kernel to them
// field for field.

// refScaled is the former Sim.Scaled.
func (s *Sim) refScaled(scale float64) *Sim {
	if scale == 1 {
		return s
	}
	c := *s
	c.Pol.FrameRatio *= scale
	c.Pol.TextRatio *= scale
	return &c
}

// refResidentBytes is the former Sim.residentBytes.
func (s *Sim) refResidentBytes(kvLen, batch int) float64 {
	resident := s.LLM.WeightBytes()
	kvBytes := s.LLM.KVBytesPerToken() * float64(kvLen) * float64(batch) * s.Pol.quantFactor()
	if s.Pol.Offloads {
		// Only the fetched working set + recent window stays resident
		// (double-buffered).
		working := kvBytes * s.Pol.FrameRatio * 2 / float64(s.LLM.Layers)
		resident += working
	} else {
		resident += kvBytes
	}
	// Activations / workspace: ~2 GB at batch, grows mildly.
	resident += 2e9 + 0.1e9*float64(batch)
	return resident
}

// refChunk is the former Sim.Chunk.
func (s *Sim) refChunk(n, kvLen, batch int, stage StageKind) Breakdown {
	var b Breakdown
	if batch <= 0 || n <= 0 {
		return b
	}
	if s.refResidentBytes(kvLen, batch) > s.Dev.MemCapacity {
		b.OOM = true
		return b
	}
	ratio := s.Pol.ratio(stage)
	attended := int(ratio*float64(kvLen)+0.5) + n
	rows := n * batch

	// --- Per-layer compute (summed across layers) ---
	linFLOPs := s.LLM.LayerLinearFLOPs(rows) * float64(s.LLM.Layers)
	linBytes := s.LLM.LayerWeightBytes() * float64(s.LLM.Layers)
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, linBytes)

	attnFLOPs := s.LLM.LayerAttnFLOPs(n, attended) * float64(batch) * float64(s.LLM.Layers)
	attnBytes := s.LLM.LayerKVBytes(attended) * float64(batch) * float64(s.LLM.Layers) * s.Pol.quantFactor()
	b.AttnTime = s.rooflineTime(attnFLOPs, s.Dev.AttnEff, attnBytes)
	b.UsefulFLOPs = linFLOPs + attnFLOPs

	// --- KV prediction ---
	cand := float64(kvLen)
	if s.Pol.ClusterCompression > 1 {
		cand /= s.Pol.ClusterCompression
	}
	nCand := int(cand + 0.5)
	predDense := s.LLM.PredFLOPs(rows, nCand) * float64(s.LLM.Layers)
	var predIrregularOps float64
	switch s.Pol.Pred {
	case PredTopK:
		// GPU top-k: score pass is dense; the sort/selection pass touches
		// every candidate with data-dependent control flow.
		predIrregularOps = 8 * float64(rows) * cand * float64(s.LLM.Layers)
	case PredReSV:
		// Hamming clustering (bit ops over clusters) + WiCSum thresholding.
		hamOps := float64(n*batch) * cand * defaultNHp / 8
		wicOps := 6 * float64(rows*s.LLM.Heads) * cand * wtuExamineFraction(s.ExamineFraction)
		predIrregularOps = (hamOps + wicOps) * float64(s.LLM.Layers)
	case PredNone:
		// no prediction pass: nothing irregular to charge
	}
	if s.Pol.Pred != PredNone {
		if s.Pol.PredOnDevice {
			irr := predIrregularOps / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if s.Pol.Pred == PredTopK {
				// Per-row sort kernels: fixed launch + element-linear cost
				// (GPU-friendly but still one kernel per query row per layer).
				irr += float64(rows) * (60e-6 + cand*0.5e-9) * float64(s.LLM.Layers)
			}
			if s.Pol.Pred == PredReSV {
				// ReSV's clustering/thresholding is conditional and
				// data-dependent (Sec. V): on a GPU it serialises into
				// latency-bound chains instead of wide kernels. Top-k, by
				// contrast, is a "computationally regular and GPU-friendly
				// primitive" (Sec. I) and keeps the parallel rate above.
				irr = predIrregularOps / gpuSerialOpsPerSec
			}
			b.PredRaw = predDense/(s.Dev.PeakFLOPS*s.Dev.DenseEff) + irr
			// Prediction shares the device with LLM kernels: fully exposed.
			b.PredExposed = b.PredRaw
		} else {
			// DRE path: Q x K_cluster^T runs on the LXE (dense, cheap);
			// clustering + thresholding run on HCU/WTU concurrently.
			lxe := predDense / (s.Dev.PeakFLOPS * s.Dev.DenseEff)
			cyc := DRECycles{
				HCU: HCUCycles(n*batch, nCand, defaultNHp, s.Dev.Cores),
				WTU: WTUCycles(rows*s.LLM.Heads, nCand, s.Dev.Cores,
					wtuExamineFraction(s.ExamineFraction)),
				KVMU: KVMUCycles(n*batch, s.fetchSegments(kvLen, batch, ratio)),
			}
			dre := DRETime(cyc, s.Dev.Freq) * float64(s.LLM.Layers)
			b.DRETime = dre
			b.PredRaw = lxe + dre
			// The LXE score matmul is exposed (tiny); DRE work overlaps with
			// attention+FFN and is exposed only if it exceeds them.
			b.PredExposed = lxe
			if over := dre - (b.LinearTime + b.AttnTime); over > 0 {
				b.PredExposed += over
			}
		}
	}

	// --- KV fetch ---
	if s.Pol.Offloads && kvLen > 0 {
		reuse := s.Pol.ResidentReuse
		if reuse < 0 {
			reuse = 0
		}
		if reuse > 1 {
			reuse = 1
		}
		fetchTokens := ratio * (1 - reuse) * float64(kvLen) * float64(batch) * float64(s.LLM.Layers)
		b.FetchBytes = fetchTokens * 2 * float64(s.LLM.KVDim()) * s.LLM.BytesPerElem * s.Pol.quantFactor()
		segs := int(float64(s.fetchSegments(kvLen, batch, ratio)) * (1 - reuse) * float64(s.LLM.Layers))
		linkTime := s.Dev.Link.TransferTime(b.FetchBytes, segs)
		if s.Dev.OffloadSSD != nil {
			if st := s.Dev.OffloadSSD.ReadTime(b.FetchBytes, segs); st > linkTime {
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

	// --- Vision tower + host-side frame handling (frame stage only) ---
	if stage == StageFramePhase && s.VisionCost != nil {
		vf := s.VisionCost.FLOPs * float64(batch)
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

// refStep is the former Sim.Step.
func (s *Sim) refStep(reqs []StepReq) Breakdown {
	live := 0
	for _, r := range reqs {
		if r.NewTokens > 0 {
			live++
		}
	}
	var b Breakdown
	if live == 0 {
		return b
	}
	if live == 1 && len(reqs) == 1 {
		r := reqs[0]
		return s.refScaled(r.scale()).refChunk(r.NewTokens, r.KVLen, 1, r.Stage)
	}

	// Combined resident footprint: weights once, each stream's working set,
	// workspace growing mildly with batch (mirrors residentBytes at batch 1
	// per stream).
	resident := s.LLM.WeightBytes()
	for _, r := range reqs {
		if r.NewTokens <= 0 {
			continue
		}
		kvBytes := s.LLM.KVBytesPerToken() * float64(r.KVLen) * s.Pol.quantFactor()
		if s.Pol.Offloads {
			resident += kvBytes * s.Pol.FrameRatio * r.scale() * 2 / float64(s.LLM.Layers)
		} else {
			resident += kvBytes
		}
	}
	resident += 2e9 + 0.1e9*float64(live)
	if resident > s.Dev.MemCapacity {
		b.OOM = true
		return b
	}

	layers := float64(s.LLM.Layers)
	rows := 0
	nFrames := 0
	var attnFLOPs, attnBytes float64
	var predDense, predIrregularOps, topkLaunch, dre float64
	var fetchBytes float64
	fetchSegs := 0
	for _, r := range reqs {
		if r.NewTokens <= 0 {
			continue
		}
		n := r.NewTokens
		rows += n
		if r.Stage == StageFramePhase {
			nFrames++
		}
		ratio := s.Pol.ratio(r.Stage) * r.scale()
		attended := int(ratio*float64(r.KVLen)+0.5) + n

		// Attention stays per stream: each request reads its own cache.
		attnFLOPs += s.LLM.LayerAttnFLOPs(n, attended) * layers
		attnBytes += s.LLM.LayerKVBytes(attended) * layers * s.Pol.quantFactor()

		// KV prediction per stream, mirroring Chunk at batch 1.
		cand := float64(r.KVLen)
		if s.Pol.ClusterCompression > 1 {
			cand /= s.Pol.ClusterCompression
		}
		nCand := int(cand + 0.5)
		predDense += s.LLM.PredFLOPs(n, nCand) * layers
		switch s.Pol.Pred {
		case PredTopK:
			predIrregularOps += 8 * float64(n) * cand * layers
			topkLaunch += float64(n) * (60e-6 + cand*0.5e-9) * layers
		case PredReSV:
			hamOps := float64(n) * cand * defaultNHp / 8
			wicOps := 6 * float64(n*s.LLM.Heads) * cand * wtuExamineFraction(s.ExamineFraction)
			predIrregularOps += (hamOps + wicOps) * layers
		case PredNone:
			// no prediction pass: nothing irregular to charge
		}
		if s.Pol.Pred != PredNone && !s.Pol.PredOnDevice {
			cyc := DRECycles{
				HCU: HCUCycles(n, nCand, defaultNHp, s.Dev.Cores),
				WTU: WTUCycles(n*s.LLM.Heads, nCand, s.Dev.Cores,
					wtuExamineFraction(s.ExamineFraction)),
				KVMU: KVMUCycles(n, s.fetchSegments(r.KVLen, 1, ratio)),
			}
			dre += DRETime(cyc, s.Dev.Freq) * layers
		}

		// KV fetch per stream: selected tokens cross the link for each cache.
		if s.Pol.Offloads && r.KVLen > 0 {
			reuse := s.Pol.ResidentReuse
			if reuse < 0 {
				reuse = 0
			}
			if reuse > 1 {
				reuse = 1
			}
			fetchTokens := ratio * (1 - reuse) * float64(r.KVLen) * layers
			fetchBytes += fetchTokens * 2 * float64(s.LLM.KVDim()) * s.LLM.BytesPerElem * s.Pol.quantFactor()
			fetchSegs += int(float64(s.fetchSegments(r.KVLen, 1, ratio)) * (1 - reuse) * layers)
		}
	}

	// Linear layers: FLOPs scale with the batch's total new tokens, but the
	// weights are read once for everyone — the step's amortised cost.
	linFLOPs := s.LLM.LayerLinearFLOPs(rows) * layers
	linBytes := s.LLM.LayerWeightBytes() * layers
	b.LinearTime = s.rooflineTime(linFLOPs, s.Dev.DenseEff, linBytes)
	b.AttnTime = s.rooflineTime(attnFLOPs, s.Dev.AttnEff, attnBytes)
	b.UsefulFLOPs = linFLOPs + attnFLOPs

	if s.Pol.Pred != PredNone {
		if s.Pol.PredOnDevice {
			irr := predIrregularOps / (s.Dev.PeakFLOPS * s.Dev.IrregularEff)
			if s.Pol.Pred == PredTopK {
				irr += topkLaunch
			}
			if s.Pol.Pred == PredReSV {
				irr = predIrregularOps / gpuSerialOpsPerSec
			}
			b.PredRaw = predDense/(s.Dev.PeakFLOPS*s.Dev.DenseEff) + irr
			b.PredExposed = b.PredRaw
		} else {
			lxe := predDense / (s.Dev.PeakFLOPS * s.Dev.DenseEff)
			b.DRETime = dre
			b.PredRaw = lxe + dre
			b.PredExposed = lxe
			if over := dre - (b.LinearTime + b.AttnTime); over > 0 {
				b.PredExposed += over
			}
		}
	}

	if fetchBytes > 0 {
		b.FetchBytes = fetchBytes
		linkTime := s.Dev.Link.TransferTime(fetchBytes, fetchSegs)
		if s.Dev.OffloadSSD != nil {
			if st := s.Dev.OffloadSSD.ReadTime(fetchBytes, fetchSegs); st > linkTime {
				linkTime = st
			}
		}
		b.FetchRaw = linkTime
		if s.Pol.PrefetchOverlap {
			cover := b.LinearTime + b.AttnTime + b.PredExposed
			if b.FetchRaw > cover {
				b.FetchExposed = b.FetchRaw - cover
			}
		} else {
			b.FetchExposed = b.FetchRaw
		}
	}

	if nFrames > 0 && s.VisionCost != nil {
		vf := s.VisionCost.FLOPs * float64(nFrames)
		b.VisionTime = s.rooflineTime(vf, s.Dev.DenseEff, s.VisionCost.WeightBytes)
		b.VisionTime += s.Dev.FrameOverhead
		b.UsefulFLOPs += vf
	}

	b.Total = b.VisionTime + b.LinearTime + b.AttnTime + b.PredExposed + b.FetchExposed
	b.EnergyJ = s.energy(b)
	if s.Phases != nil {
		// The single-request path above accumulates through Chunk; only the
		// multi-request path records here, so nothing is double counted.
		s.Phases.add(&b)
	}
	return b
}

// refOOM is the former Sim.OOM(kvLen, batch) at batch 1 under a budget
// scale, as the serving plane called it through a scaled copy.
func (s *Sim) refOOM(kvLen int, scale float64) bool {
	return s.refScaled(scale).refResidentBytes(kvLen, 1) > s.Dev.MemCapacity
}

// TestPricingMatchesOracle pins the shared kernel to the former two pricing
// paths exactly, field for field: Chunk over every device, policy, stage,
// KV length and batch; solo Step and OOM at every budget scale (0 is the
// unscaled zero value); and mixed-stage, mixed-scale multi-request steps.
func TestPricingMatchesOracle(t *testing.T) {
	devs := []DeviceSpec{AGXOrin(), A100(), VRex8(), VRex48()}
	pols := []PolicyModel{
		FlexGenModel(), InfiniGenModel(), InfiniGenPModel(), ReKVModel(),
		ReSVModel(), ReSVOnGPUModel(), DenseModel(), OakenModel(),
	}
	kvs := []int{0, 1, 999, 10000, 40000, 60000, 100000, 150000}
	stages := []StageKind{StageFramePhase, StageTextPhase}
	scales := []float64{0, 1, 0.7, 0.49, 0.343, 0.25}
	compared := 0
	check := func(what string, got, want Breakdown) {
		t.Helper()
		compared++
		if got != want {
			t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
		}
	}
	for _, dev := range devs {
		for _, pol := range pols {
			sim := NewSim(dev, Llama3_8B(), pol)
			id := dev.Name + "+" + pol.Name
			for _, kv := range kvs {
				for _, st := range stages {
					for _, n := range []int{0, 1, 10, 25} {
						for _, batch := range []int{0, 1, 2, 4, 16} {
							check(fmt.Sprintf("%s Chunk(%d,%d,%d,%d)", id, n, kv, batch, st),
								sim.Chunk(n, kv, batch, st), sim.refChunk(n, kv, batch, st))
						}
					}
					for _, sc := range scales {
						r := StepReq{NewTokens: 10, KVLen: kv, Stage: st, RatioScale: sc}
						check(fmt.Sprintf("%s solo Step(%+v)", id, r),
							sim.Step([]StepReq{r}), sim.refStep([]StepReq{r}))
						if got, want := sim.OOM(r), sim.refOOM(kv, r.scale()); got != want {
							t.Fatalf("%s OOM(%+v) = %v, oracle %v", id, r, got, want)
						}
						compared++
						mixed := []StepReq{
							r,
							{NewTokens: 1, KVLen: kv/2 + 300, Stage: StageTextPhase, RatioScale: 0.7},
							{NewTokens: 10, KVLen: kv + 5000, Stage: StageFramePhase},
						}
						check(fmt.Sprintf("%s pair Step(%+v)", id, mixed[:2]),
							sim.Step(mixed[:2]), sim.refStep(mixed[:2]))
						check(fmt.Sprintf("%s triple Step(%+v)", id, mixed),
							sim.Step(mixed), sim.refStep(mixed))
					}
				}
			}
		}
	}
	t.Logf("%d comparisons identical", compared)
}
