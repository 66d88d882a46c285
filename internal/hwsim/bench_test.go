package hwsim

import "testing"

// BenchmarkPrice times the pricing kernel on fixed inputs, so every
// iteration does the same work: a batch-1 frame Chunk, a solo Step at a
// degraded budget scale, and an 8-member step mixing frame and decode
// requests at mixed scales and KV lengths.
func BenchmarkPrice(b *testing.B) {
	sim := NewSim(VRex8(), Llama3_8B(), ReSVModel())
	b.Run("chunk/batch1", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sim.Chunk(10, 40000, 1, StageFramePhase)
		}
	})
	b.Run("step/solo-scaled", func(b *testing.B) {
		reqs := []StepReq{{NewTokens: 10, KVLen: 40000, Stage: StageFramePhase, RatioScale: 0.7}}
		b.ReportAllocs()
		for b.Loop() {
			sim.Step(reqs)
		}
	})
	b.Run("step/8-mixed", func(b *testing.B) {
		reqs := make([]StepReq, 8)
		for i := range reqs {
			reqs[i] = StepReq{NewTokens: 10, KVLen: 10000 + 5000*i, Stage: StageFramePhase}
			if i%3 == 2 {
				reqs[i] = StepReq{NewTokens: 1, KVLen: 20000 + 1000*i, Stage: StageTextPhase}
			}
			if i%2 == 1 {
				reqs[i].RatioScale = 0.49
			}
		}
		b.ReportAllocs()
		for b.Loop() {
			sim.Step(reqs)
		}
	})
}
