package main

import (
	"fmt"
	"math"

	"vrex/internal/core"
	"vrex/internal/model"
	"vrex/internal/tensor"
	"vrex/internal/workload"
)

// functionalSizes shapes the two functional workloads.
type functionalSizes struct {
	// streamFrames is the stream-long video length; askEvery puts a
	// question after every askEvery-th frame.
	streamFrames, askEvery int
	// qaPerFamily is the number of qa-short sessions per Table II task
	// family in one unit of work.
	qaPerFamily int
	// refFrames / refSessions bound the worker-invariance reference run.
	refFrames, refSessions int
}

func sizesFor(smoke bool) functionalSizes {
	if smoke {
		return functionalSizes{streamFrames: 30, askEvery: 10, qaPerFamily: 1, refFrames: 12, refSessions: 2}
	}
	return functionalSizes{streamFrames: 270, askEvery: 27, qaPerFamily: 1, refFrames: 60, refSessions: 2}
}

// seededConfigs derives the inputs from the workload seed: the video
// stream and the planted questions (workload.Config.Seed also seeds the
// generator's encoder and projector). The model weights and ReSV's
// hyperplanes are the program under test and keep their default seeds.
func seededConfigs(seed uint64) (model.Config, core.Config, workload.Config) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Stream.Seed = seed
	return model.DefaultConfig(), core.DefaultConfig(), wcfg
}

// setWorkers fixes the kernel worker count for the next unit: the tensor
// matmul shards and ReSV's per-head thresholding both follow it.
func setWorkers(rcfg *core.Config, workers int) {
	tensor.SetWorkers(workers)
	rcfg.Workers = workers
}

// sessionRun runs frames and questions through one model + ReSV pair and
// records per-operation samples into u.
type sessionRun struct {
	m    *model.Model
	resv *core.ReSV
	ret  model.Retriever
	tw   *tracedRetriever
	tr   *tracer
	u    *unitResult
	// tokFrame maps every token in the KV cache to its frame, -1 for
	// question tokens; sceneOf maps frames to their planted scene.
	tokFrame []int
	sceneOf  []int
	frames   int
}

func newSessionRun(mcfg model.Config, rcfg core.Config, tr *tracer, u *unitResult, sceneOf []int) *sessionRun {
	s := &sessionRun{tr: tr, u: u, sceneOf: sceneOf}
	tr.begin(spModelNew)
	s.m = model.New(mcfg)
	tr.end()
	tr.begin(spCoreNew)
	s.resv = core.New(mcfg, rcfg)
	tr.end()
	s.ret = s.resv
	if tr != nil {
		s.tw = &tracedRetriever{inner: s.resv, tr: tr}
		s.ret = s.tw
	}
	return s
}

func (s *sessionRun) forward(x *tensor.Matrix, stage model.Stage, record bool) model.ForwardResult {
	k := spForwardFrame
	if stage == model.StageText {
		k = spForwardText
	}
	if s.tw != nil {
		s.tw.stage = stage
	}
	s.tr.begin(k)
	out := s.m.Forward(x, s.ret, stage, record)
	s.tr.end()
	return out
}

// frame forwards one frame's embeddings and checks the hidden state.
func (s *sessionRun) frame(emb *tensor.Matrix) {
	s.tr.setReq(int64(s.u.attempted))
	out := s.forward(emb, model.StageFrame, false)
	s.u.op(hashMatrix(out.Hidden, 0), finite(out.Hidden))
	for i := 0; i < emb.Rows; i++ {
		s.tokFrame = append(s.tokFrame, s.frames)
	}
	s.frames++
	s.u.mark(stepFrame, 1)
}

// ask forwards one question and reads the answer from the attention mass
// it put on past frames; it reports whether the answer is the planted
// scene.
func (s *sessionRun) ask(q workload.Query) {
	s.tr.setReq(int64(s.u.attempted))
	out := s.forward(q.Embeddings, model.StageText, true)
	s.tr.begin(spAnswer)
	ans := answerScene(out.AttnMass, s.tokFrame, s.sceneOf[:s.frames])
	s.tr.end()
	s.u.op(hashMatrix(out.Hidden, uint64(ans)+1), finite(out.Hidden))
	s.u.questions++
	if ans == q.TargetScene {
		s.u.correct++
	}
	for i := 0; i < q.Embeddings.Rows; i++ {
		s.tokFrame = append(s.tokFrame, -1)
	}
	s.u.mark(stepQuestion, 0)
}

// finish folds the retriever's selection statistics into the unit.
func (s *sessionRun) finish() {
	st := s.resv.Stats()
	u := s.u
	u.sel.frameSel += st.Frame.SelectedTokens
	u.sel.frameCand += st.Frame.CandidateTokens
	u.sel.textSel += st.Text.SelectedTokens
	u.sel.textCand += st.Text.CandidateTokens
	u.sel.examined += st.Frame.ExaminedFraction + st.Text.ExaminedFraction
	u.sel.calls += st.Frame.Calls + st.Text.Calls
	for l := 0; l < s.m.Cfg.Layers; l++ {
		t := s.resv.HCTable(l)
		u.sel.tokens += int64(t.NumTokens())
		u.sel.clusters += int64(t.NumClusters())
	}
}

// answerScene picks the scene whose frames received the most attention mass
// per frame (the planted-saliency reading of internal/accuracy), over the
// video tokens only: question tokens interleaved in the cache map to -1.
func answerScene(mass []float64, tokFrame, sceneOf []int) int {
	if len(sceneOf) == 0 {
		return -1
	}
	nScenes := sceneOf[len(sceneOf)-1] + 1
	perScene := make([]float64, nScenes)
	frames := make([]int, nScenes)
	for _, sc := range sceneOf {
		frames[sc]++
	}
	for tok, m := range mass {
		if f := tokFrame[tok]; f >= 0 {
			perScene[sceneOf[f]] += m
		}
	}
	best, bestMass := 0, -1.0
	for sc, m := range perScene {
		if frames[sc] == 0 {
			continue
		}
		if norm := m / float64(frames[sc]); norm > bestMass {
			best, bestMass = sc, norm
		}
	}
	return best
}

// --- stream-long ---

// streamLong is one ReSV stream of generated video growing to ~3K tokens,
// with a question after every askEvery-th frame.
type streamLong struct {
	mcfg model.Config
	rcfg core.Config
	sess *workload.Session
	// asks[i] is asked right after frame askAfter[i].
	asks     []workload.Query
	askAfter []int
}

func setupStreamLong(seed uint64, smoke bool, tr *tracer) (bench, error) {
	sz := sizesFor(smoke)
	mcfg, rcfg, wcfg := seededConfigs(seed)
	b := &streamLong{mcfg: mcfg, rcfg: rcfg}
	full := wcfg
	full.Frames = sz.streamFrames
	full.Queries = 0
	tr.begin(spSession)
	b.sess = workload.NewGenerator(full, mcfg.Dim).Session(workload.TaskStep, 0)
	tr.end()
	// Each question comes from a session cut at its frame: the generator
	// draws the same video prefix for the same seed, and plants the
	// question's evidence in a scene seen so far.
	tasks := workload.Tasks()
	for i, f := 0, sz.askEvery-1; f < sz.streamFrames; i, f = i+1, f+sz.askEvery {
		cut := wcfg
		cut.Frames = f + 1
		cut.Queries = 1
		task := tasks[i%len(tasks)]
		tr.begin(spSession)
		cs := workload.NewGenerator(cut, mcfg.Dim).Session(task, 0)
		tr.end()
		if !sameMatrix(cs.FrameEmbeds[f], b.sess.FrameEmbeds[f]) {
			return nil, fmt.Errorf("stream-long: generator prefix diverged at frame %d", f)
		}
		b.asks = append(b.asks, cs.Queries[0])
		b.askAfter = append(b.askAfter, f)
	}
	return b, nil
}

func (b *streamLong) refLimit(smoke bool) int { return sizesFor(smoke).refFrames }

func (b *streamLong) unit(tr *tracer, workers, limit int) *unitResult {
	u := &unitResult{}
	u.start()
	rcfg := b.rcfg
	setWorkers(&rcfg, workers)
	s := newSessionRun(b.mcfg, rcfg, tr, u, b.sess.SceneOf)
	u.mark(stepOther, 0)
	q := 0
	for f, emb := range b.sess.FrameEmbeds {
		if limit > 0 && u.attempted >= limit {
			break
		}
		s.frame(emb)
		for q < len(b.asks) && b.askAfter[q] == f {
			s.ask(b.asks[q])
			q++
		}
	}
	s.finish()
	u.mark(stepOther, 0)
	return u
}

// --- qa-short ---

// qaShort runs COIN-average sessions (26 frames, 3 questions) over the five
// Table II task families, generating each session and building a fresh
// model and retriever inside the unit of work.
type qaShort struct {
	mcfg    model.Config
	rcfg    core.Config
	wcfg    workload.Config
	perTask int
}

func setupQAShort(seed uint64, smoke bool, _ *tracer) (bench, error) {
	mcfg, rcfg, wcfg := seededConfigs(seed)
	sz := sizesFor(smoke)
	return &qaShort{mcfg: mcfg, rcfg: rcfg, wcfg: wcfg, perTask: sz.qaPerFamily}, nil
}

func (b *qaShort) refLimit(smoke bool) int {
	// A session is 26 frames + 3 questions of operations.
	sz := sizesFor(smoke)
	return sz.refSessions * (b.wcfg.Frames + b.wcfg.Queries)
}

func (b *qaShort) unit(tr *tracer, workers, limit int) *unitResult {
	u := &unitResult{}
	u.start()
	rcfg := b.rcfg
	setWorkers(&rcfg, workers)
	for _, task := range workload.Tasks() {
		gen := workload.NewGenerator(b.wcfg, b.mcfg.Dim)
		for i := 0; i < b.perTask; i++ {
			if limit > 0 && u.attempted >= limit {
				return u
			}
			tr.begin(spSession)
			sess := gen.Session(task, i)
			tr.end()
			s := newSessionRun(b.mcfg, rcfg, tr, u, sess.SceneOf)
			u.mark(stepOther, 0)
			for _, emb := range sess.FrameEmbeds {
				s.frame(emb)
			}
			for _, q := range sess.Queries {
				s.ask(q)
			}
			s.finish()
		}
	}
	u.mark(stepOther, 0)
	return u
}

// --- helpers ---

func finite(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// hashMatrix is FNV-1a over the matrix's float bits, seeded with salt.
func hashMatrix(m *tensor.Matrix, salt uint64) uint64 {
	h := fnvOffset ^ salt
	for _, v := range m.Data {
		h = fnvMix(h, uint64(math.Float32bits(v)))
	}
	return h
}

func sameMatrix(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
