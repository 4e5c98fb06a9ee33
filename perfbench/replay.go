package main

// The replay workload and the trace corpus shared with the others: traces
// are recorded during set-up (compile + one verified simulation each),
// then each operation decodes one trace and replays it through the
// simulator, which re-checks the recorded oracle result, memory digest,
// cycle and instruction counts and the cycle ledger.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/workload"
)

// recorded is one trace of the corpus, encoded as a client would send it.
type recorded struct {
	name           string
	key            string // payload checksum, the trace's cache key
	body           []byte
	instrs, cycles int64
}

// corpusItem is one trace to record: a workload at one architecture.
type corpusItem struct {
	bm   bench.Benchmark
	arch regconn.Arch
	name string
}

// backends are the five register backends, by registry name.
var backends = []struct {
	name string
	mode regconn.RegMode
}{
	{"spill", regconn.WithoutRC},
	{"rc", regconn.WithRC},
	{"portreduce", regconn.PortReduce},
	{"chain", regconn.Chain},
	{"unlimited", regconn.Unlimited},
}

// centerArch is the paper's center configuration: 4-issue, 2-cycle loads,
// combined connects, a 16-entry integer core (integer benchmarks) or a
// 32-entry FP core (FP benchmarks), the other file at 64.
func centerArch(bm bench.Benchmark, mode regconn.RegMode, issue int) regconn.Arch {
	a := regconn.Arch{Issue: issue, LoadLatency: 2, CombineConnects: true, Mode: mode,
		IntCore: 16, FPCore: 64, Verify: true}
	if bm.FP {
		a.IntCore, a.FPCore = 64, 32
	}
	return a
}

// centerRC is the probe corpus: every paper benchmark at the center
// configuration with register connection.
func centerRC() []corpusItem {
	var items []corpusItem
	for _, bm := range bench.All() {
		items = append(items, corpusItem{bm, centerArch(bm, regconn.WithRC, 4), bm.Name + "@rc"})
	}
	return items
}

// record compiles one item and records its verified trace.
func record(it corpusItem) (*recorded, error) {
	ex, err := regconn.Build(it.bm.Build(), it.arch)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", it.name, err)
	}
	tr, err := ex.Trace(it.name)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", it.name, err)
	}
	var buf bytes.Buffer
	key, err := tr.Encode(&buf)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", it.name, err)
	}
	return &recorded{name: it.name, key: key, body: buf.Bytes(), instrs: tr.Instrs, cycles: tr.Cycles}, nil
}

// recordCorpus records every item across workers goroutines, in item
// order.
func recordCorpus(items []corpusItem, workers int) ([]*recorded, error) {
	out := make([]*recorded, len(items))
	errs := make([]error, len(items))
	forEach(len(items), workers, func(i int) { out[i], errs[i] = record(items[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// forEach calls f(i) for every i in [0, n) from workers goroutines and
// returns when all calls have.
func forEach(n, workers int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// replayResult is one decode+replay operation.
type replayResult struct {
	decode, run    time.Duration
	instrs, cycles int64
	err            error
}

// replayOnce decodes and replays one trace. Replay verifies the oracle,
// the memory digest, the recorded counts and the ledger; the key and the
// counts are also checked against what set-up recorded.
func replayOnce(rec *recorded) replayResult {
	var r replayResult
	t0 := time.Now()
	tr, key, err := workload.DecodeTrace(bytes.NewReader(rec.body))
	r.decode = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", rec.name, err)
		return r
	}
	if key != rec.key {
		r.err = fmt.Errorf("%s: decoded key %s, recorded %s", rec.name, key, rec.key)
		return r
	}
	t1 := time.Now()
	res, err := tr.Replay(context.Background())
	r.run = time.Since(t1)
	if err != nil {
		r.err = err
		return r
	}
	r.instrs, r.cycles = res.Instrs, res.Cycles
	if r.instrs != rec.instrs || r.cycles != rec.cycles {
		r.err = fmt.Errorf("%s: replayed %d instrs / %d cycles, recorded %d / %d",
			rec.name, r.instrs, r.cycles, rec.instrs, rec.cycles)
	}
	return r
}

// replayStats accumulates replay passes.
type replayStats struct {
	passes    []float64 // wall seconds per pass
	minstr    []float64 // simulated M instructions per host second, per pass
	latMS     []float64 // per successful operation, decode+replay+verify
	failed    int       // failed operations
	decodeMS  []float64
	runMS     []float64
	runNS     float64 // total replay time
	instrs    int64   // total replayed instructions
	passInstr int64   // instructions of one full pass
	passCycle int64   // cycles of one full pass
}

// pass replays every trace of the corpus once, in the given order, across
// workers goroutines, and records the results in s and w.
func (s *replayStats) pass(o *options, w *window, corpus []*recorded, order []int) {
	res := make([]replayResult, len(corpus))
	t0 := time.Now()
	forEach(len(order), o.workers, func(i int) { res[order[i]] = replayOnce(corpus[order[i]]) })
	wall := time.Since(t0).Seconds()
	var instrs, cycles int64
	for _, r := range res {
		w.ops++
		if r.err != nil {
			w.fail(o, "replay: %v", r.err)
			s.failed++
			continue
		}
		s.latMS = append(s.latMS, ms(r.decode+r.run))
		s.decodeMS = append(s.decodeMS, ms(r.decode))
		s.runMS = append(s.runMS, ms(r.run))
		s.runNS += float64(r.run.Nanoseconds())
		instrs += r.instrs
		cycles += r.cycles
	}
	s.instrs += instrs
	if len(s.passes) == 0 {
		s.passInstr, s.passCycle = instrs, cycles
	}
	s.passes = append(s.passes, wall)
	s.minstr = append(s.minstr, float64(instrs)/wall/1e6)
}

// layers reports the replay and simulator per-layer metrics.
func (s *replayStats) layers(w *window) {
	w.layer["replay.decode_ms"] = median(s.decodeMS)
	w.layer["replay.run_ms"] = median(s.runMS)
	if s.instrs > 0 {
		w.layer["sim.ns_per_instr"] = s.runNS / float64(s.instrs)
	}
	w.layer["sim.instrs"] = float64(s.passInstr)
	w.layer["sim.cycles"] = float64(s.passCycle)
}

// prober measures replay throughput on a small corpus for the workloads
// other than replay. It replays in short bursts between their measured
// stretches, so its median spans the whole run rather than one moment of
// it; the replay and simulator per-layer metrics come from the same passes.
type prober struct {
	o      *options
	corpus []*recorded
	rng    *rand.Rand
	s      replayStats
}

func newProber(o *options, corpus []*recorded) *prober {
	return &prober{o: o, corpus: corpus, rng: newRand(o.seed, "probe-order")}
}

// burst replays the corpus n times.
func (p *prober) burst(w *window, n int) {
	// Start from the same heap state whatever ran before: replay
	// allocates a fresh simulator image per operation, and whether it
	// reuses swept memory or maps new pages moves its speed.
	runtime.GC()
	debug.FreeOSMemory()
	for i := 0; i < n; i++ {
		p.s.pass(p.o, w, p.corpus, p.rng.Perm(len(p.corpus)))
	}
}

// report sets replay_minstr_per_s, the median per-pass rate of every
// burst, and the replay per-layer metrics.
func (p *prober) report(w *window) {
	w.e2e["replay_minstr_per_s"] = median(p.s.minstr)
	p.s.layers(w)
}

// replayBench is the replay workload: 12 paper benchmarks × 5 backends at
// the center configuration plus two seeded generated traces, replayed in
// closed-loop passes.
type replayBench struct {
	o      *options
	corpus []*recorded
}

func setupReplay(o *options, _ bool) (instance, error) {
	var items []corpusItem
	for _, bm := range bench.All() {
		for _, b := range backends {
			items = append(items, corpusItem{bm, centerArch(bm, b.mode, 4), bm.Name + "@" + b.name})
		}
	}
	seeds := workloadSeeds(o.seed, "replay-extra", 2)
	for i, profile := range []string{"trap-heavy", "mispredict-heavy"} {
		bm, err := workload.Spec{Profile: profile, Seed: seeds[i]}.Generate()
		if err != nil {
			return nil, err
		}
		items = append(items, corpusItem{bm, centerArch(bm, regconn.WithRC, 4), bm.Name + "@rc"})
	}
	corpus, err := recordCorpus(items, o.workers)
	if err != nil {
		return nil, err
	}
	return &replayBench{o: o, corpus: corpus}, nil
}

func (b *replayBench) close() {}

func (b *replayBench) measure(seconds float64, m *meter) (*window, error) {
	w := newWindow()
	rng := newRand(b.o.seed, "replay-order")
	var s replayStats
	if err := m.begin(); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(s.passes) == 0 || !windowDone(time.Since(start).Seconds(), seconds, s.passes) {
		s.pass(b.o, w, b.corpus, rng.Perm(len(b.corpus)))
	}
	if err := m.end(w.ops); err != nil {
		return nil, err
	}
	w.e2e["suite_s"] = median(s.passes)
	w.e2e["replay_minstr_per_s"] = median(s.minstr)
	latMS := withFailures(s.latMS, s.failed, 1000*seconds)
	w.e2e["serve_p50_ms"] = quantile(latMS, 0.50)
	w.e2e["serve_p99_ms"] = quantile(latMS, 0.99)
	s.layers(w)
	return w, nil
}

// windowDone reports whether a closed loop of passes that has measured
// elapsed seconds should stop: once another pass of the median length
// would overrun the window by more than half a pass.
func windowDone(elapsed, seconds float64, passes []float64) bool {
	return elapsed+median(passes)/2 >= seconds
}
