package hwsim

import "testing"

// TestStepSingleMatchesChunk pins the batch-1 anchor: a one-request step is
// byte-identical to the corresponding Chunk, for every policy family and
// both stages — the property the serving plane's batch-1 scheduler
// equivalence rests on.
func TestStepSingleMatchesChunk(t *testing.T) {
	cases := []struct {
		dev DeviceSpec
		pol PolicyModel
	}{
		{VRex8(), ReSVModel()},
		{AGXOrin(), FlexGenModel()},
		{AGXOrin(), ReKVModel()},
		{A100(), InfiniGenModel()},
		{AGXOrin(), DenseModel()},
	}
	for _, c := range cases {
		sim := NewSim(c.dev, Llama3_8B(), c.pol)
		for _, kv := range []int{0, 1000, 20000, 40000} {
			for _, stage := range []StageKind{StageFramePhase, StageTextPhase} {
				n := 10
				if stage == StageTextPhase {
					n = 25
				}
				got := sim.Step([]StepReq{{NewTokens: n, KVLen: kv, Stage: stage}})
				want := sim.Chunk(n, kv, 1, stage)
				if got != want {
					t.Fatalf("%s+%s kv=%d stage=%d: Step != Chunk\n%+v\n%+v",
						c.dev.Name, c.pol.Name, kv, stage, got, want)
				}
			}
		}
	}
}

// TestStepBatchAmortizes is the reason continuous batching exists: a step of
// k frames is strictly cheaper than k serial frame steps (the weight read
// and host frame overhead are charged once), but strictly more expensive
// than one frame (per-token and per-stream work still accumulates).
func TestStepBatchAmortizes(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	solo := sim.Step([]StepReq{{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}})
	for _, k := range []int{2, 4, 8} {
		reqs := make([]StepReq, k)
		for i := range reqs {
			reqs[i] = StepReq{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}
		}
		b := sim.Step(reqs)
		if b.OOM {
			t.Fatalf("batch %d OOM", k)
		}
		if b.Total >= float64(k)*solo.Total {
			t.Fatalf("batch %d total %v not cheaper than %d serial steps %v",
				k, b.Total, k, float64(k)*solo.Total)
		}
		if b.Total <= solo.Total {
			t.Fatalf("batch %d total %v not above a single frame %v", k, b.Total, solo.Total)
		}
	}
}

// TestStepMonotoneInMembers: adding a member never makes the step cheaper.
func TestStepMonotoneInMembers(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	prev := 0.0
	var reqs []StepReq
	for k := 1; k <= 8; k++ {
		reqs = append(reqs, StepReq{NewTokens: 10, KVLen: 10000 + 1000*k, Stage: StageFramePhase})
		b := sim.Step(reqs)
		if b.Total <= prev {
			t.Fatalf("step total not strictly increasing at %d members: %v then %v", k, prev, b.Total)
		}
		prev = b.Total
	}
}

// TestStepDegenerate: empty and token-free requests cost nothing.
func TestStepDegenerate(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	if b := sim.Step(nil); b.Total != 0 || b.OOM {
		t.Fatalf("empty step: %+v", b)
	}
	if b := sim.Step([]StepReq{{NewTokens: 0, KVLen: 5000}}); b.Total != 0 || b.OOM {
		t.Fatalf("token-free step: %+v", b)
	}
	// Zero-token requests are ignored inside a real batch too: the pair
	// (live, dead) prices exactly like the live request alone.
	live := sim.Step([]StepReq{{NewTokens: 10, KVLen: 5000, Stage: StageFramePhase}})
	mixed := sim.Step([]StepReq{
		{NewTokens: 10, KVLen: 5000, Stage: StageFramePhase},
		{NewTokens: 0, KVLen: 9000},
	})
	if mixed != live {
		t.Fatalf("dead request changed the step: %+v vs %+v", mixed, live)
	}
}

// TestStepMixedStages: frame and text requests coalesce; the mixed step
// costs more than the frame alone (prefill/decode interference) but charges
// the vision tower and frame overhead only for the frame members.
func TestStepMixedStages(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	frame := StepReq{NewTokens: 10, KVLen: 20000, Stage: StageFramePhase}
	text := StepReq{NewTokens: 1, KVLen: 20000, Stage: StageTextPhase}
	fOnly := sim.Step([]StepReq{frame, frame})
	mixed := sim.Step([]StepReq{frame, frame, text})
	if mixed.Total <= fOnly.Total {
		t.Fatalf("decode rider should add cost: %v vs %v", mixed.Total, fOnly.Total)
	}
	if mixed.VisionTime != fOnly.VisionTime {
		t.Fatalf("text request changed vision time: %v vs %v", mixed.VisionTime, fOnly.VisionTime)
	}
}

// TestStepCombinedOOM: members that fit individually can exceed device
// memory together; the step reports OOM with no cost, like Chunk.
func TestStepCombinedOOM(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), DenseModel())
	solo := StepReq{NewTokens: 10, KVLen: 60000, Stage: StageFramePhase}
	if sim.OOM(solo) {
		t.Fatal("solo request should fit")
	}
	b := sim.Step([]StepReq{solo, solo})
	if !b.OOM || b.Total != 0 {
		t.Fatalf("combined working set must OOM: %+v", b)
	}
}

// TestScaledPricing: a request priced at a reduced retrieval ratio fetches
// proportionally fewer tokens, so its step gets strictly cheaper as the scale
// shrinks, and pricing it leaves the simulator unchanged.
func TestScaledPricing(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	before := *sim
	req := StepReq{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase}
	full := sim.Step([]StepReq{req})
	prev := full.Total
	for _, scale := range []float64{0.7, 0.49, 0.25} {
		r := req
		r.RatioScale = scale
		b := sim.Step([]StepReq{r})
		if b.Total >= prev {
			t.Fatalf("scale %g: total %v not below %v", scale, b.Total, prev)
		}
		if b.FetchBytes >= full.FetchBytes*scale*1.01 {
			t.Fatalf("scale %g: fetch bytes %v not scaled from %v", scale, b.FetchBytes, full.FetchBytes)
		}
		prev = b.Total
	}
	if *sim != before {
		t.Fatal("scaled pricing mutated the receiver")
	}
}

// TestStepRatioScale pins the zero-value convention: RatioScale 0 prices
// identically to an unscaled request (both solo and batched) and RatioScale 1
// is the identity; scaling one member of a batch makes the step cheaper.
func TestStepRatioScale(t *testing.T) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	req := StepReq{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase}
	full := sim.Step([]StepReq{req})
	if want := sim.Chunk(10, 40000, 1, StageFramePhase); full != want {
		t.Fatalf("zero RatioScale solo: %+v != %+v", full, want)
	}
	explicit := req
	explicit.RatioScale = 1
	if got := sim.Step([]StepReq{explicit}); got != full {
		t.Fatalf("RatioScale 1 solo differs from zero value: %+v vs %+v", got, full)
	}
	scaled := req
	scaled.RatioScale = 0.5
	pair := sim.Step([]StepReq{req, req})
	mixed := sim.Step([]StepReq{req, scaled})
	if mixed.Total >= pair.Total {
		t.Fatalf("degraded member should cheapen the step: %v vs %v", mixed.Total, pair.Total)
	}
	if got := sim.Step([]StepReq{req, explicit}); got != pair {
		t.Fatalf("RatioScale 1 differs from zero value: %+v vs %+v", got, pair)
	}
}

// TestOOMMatchesChunk: the exported admission check agrees with Chunk's
// internal one.
func TestOOMMatchesChunk(t *testing.T) {
	sim := NewSim(AGXOrin(), Llama3_8B(), DenseModel())
	for _, kv := range []int{1000, 60000, 150000} {
		if got, want := sim.OOM(StepReq{KVLen: kv}), sim.Chunk(10, kv, 1, StageFramePhase).OOM; got != want {
			t.Fatalf("kv=%d OOM %v, Chunk reports %v", kv, got, want)
		}
	}
}
