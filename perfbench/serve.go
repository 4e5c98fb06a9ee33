package main

// The serve workload: open-loop traffic into rcserve's handler, called
// in-process (no sockets), one goroutine per request at its due time. The
// server keeps a persistent store in a fresh directory and an LRU smaller
// than the key set, so responses come from the LRU, the store, a joined
// flight, or a fresh simulation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/exp"
	"regconn/internal/obs"
	"regconn/internal/serve"
	"regconn/internal/workload"
)

// Traffic shape. No record of real rcserve traffic exists, so every
// number here is an assumption, chosen for what it makes the end-to-end
// metrics measure (README.md gives the arithmetic). The rate keeps the
// two-CPU host well under half busy (host.busy_ratio reports it), so
// latency reflects the request path rather than a saturated queue.
//
// Fresh pairs come at a fixed count per window, not at random, so that
// serve_p99_ms has the same rank among the slow requests on every run:
// 2·freshRate/(serveRate+2·freshRate) ≈ 1.9% of requests are a miss or a
// joined flight, and the 1% tail is then about the middle of them, their
// steadiest order statistic, rather than their edge.
const (
	serveRate      = 150.0                // hot arrivals per second
	freshRate      = 1.44                 // fresh pairs per second
	serveCacheSize = 32                   // LRU entries, below the hot key count
	zipfS          = 1.1                  // popularity skew within each hot kind
	pairGap        = 5 * time.Millisecond // mean; well below a miss's service time
)

// The window is measured in serveSegments open-loop stretches. Between
// two stretches, outside the window, the workload times closed-loop passes
// over the hot keys for segmentPassSeconds and replays segmentProbeBurst
// probe passes: spread over the whole run, their medians do not hang on
// one moment of a shared host.
const (
	serveSegments      = 5
	segmentPassSeconds = 0.6
	segmentProbeBurst  = 8
)

// Request kinds. The hot kinds draw from key sets that set-up has already
// computed once (a server restarted on its store); a fresh pair asks for a
// point no request has asked for yet, twice in quick succession, so each
// brings one cold miss and one request that joins its flight.
const (
	kindNamed  = iota // /v1/run on a paper benchmark, hot
	kindSpec          // /v1/run with a workload spec, hot
	kindReplay        // /v1/replay with a recorded trace body, hot
	kindFresh         // /v1/run on a paper benchmark at a new arch
	numKinds
)

// hotShare is the share of hot arrivals of each hot kind. Named hits are
// most of the requests, so serve_p50_ms is a named hit; spec and replay
// hits lie between the two quantiles, and their shares give each enough
// samples for its per-layer median.
var hotShare = [kindFresh]float64{0.8, 0.12, 0.08}

// target is one distinct request.
type target struct {
	kind  int
	path  string
	body  []byte
	bench string // paper benchmark of named and fresh requests
	class int    // fresh requests: index of their hot class in hotArchs
}

type serveBench struct {
	o       *options
	dir     string
	srv     *serve.Server
	h       http.Handler // srv; tests wrap it
	targets []target
	byKind  [numKinds][]int // target indices; hot kinds in popularity order
	hot     []int           // every hot target
	chk     bodyCheck       // first body per key, from set-up on
	procs   int             // GOMAXPROCS to restore on close
	probe   *prober
}

// hotArchs is the architecture set of hot named-benchmark requests: three
// backends at issue 2 and 4. Each is also a class of fresh requests.
func hotArchs(bm bench.Benchmark) []regconn.Arch {
	var out []regconn.Arch
	for _, issue := range []int{2, 4} {
		for _, b := range []string{"rc", "spill", "portreduce"} {
			a := centerArch(bm, 0, issue)
			a.Backend, a.Verify = b, false
			out = append(out, a)
		}
	}
	return out
}

// freshArchs returns the architectures fresh requests draw from in one hot
// class: the class's issue rate and backend at every load latency and core
// size of the figures but the hot point itself, so a miss costs about what
// the class's hot key cost to compute.
func freshArchs(bm bench.Benchmark, class regconn.Arch) []regconn.Arch {
	cores := exp.IntCores
	if bm.FP {
		cores = exp.FPCores
	}
	var out []regconn.Arch
	for _, load := range []int{2, 4} {
		for _, c := range cores {
			a := class
			a.LoadLatency = load
			if bm.FP {
				a.FPCore = c
			} else {
				a.IntCore = c
			}
			if a != class {
				out = append(out, a)
			}
		}
	}
	return out
}

func setupServe(o *options, traced bool) (instance, error) {
	dir, err := os.MkdirTemp(o.dir, "serve-")
	if err != nil {
		return nil, err
	}
	// One processor more than the server's simulation workers, so the
	// load generator sends on time while every worker is simulating; the
	// operating system shares the CPUs among them. loadgen.late_ms
	// reports how late it still ran.
	b := &serveBench{o: o, dir: dir, procs: runtime.GOMAXPROCS(o.workers + 1)}
	if err := b.setup(traced); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) setup(traced bool) error {
	cfg := serve.Config{
		CacheSize: serveCacheSize,
		Workers:   b.o.workers,
		Timeout:   time.Minute,
		StoreDir:  b.dir,
	}
	if traced {
		// Retain a trace for every request.
		cfg.Trace, cfg.TraceKeep = true, 1<<20
	}
	var err error
	if b.srv, err = serve.New(cfg); err != nil {
		return err
	}
	b.h = wrapHandler(b.srv)
	probe, err := recordCorpus(centerRC(), b.o.workers)
	if err != nil {
		return err
	}
	b.probe = newProber(b.o, probe)
	seen := map[string]bool{} // point keys already targeted
	add := func(kind int, path string, req serve.RunRequest, class int) error {
		body, err := json.Marshal(req)
		b.targets = append(b.targets, target{kind, path, body, req.Benchmark, class})
		return err
	}
	for _, bm := range bench.All() {
		for _, a := range hotArchs(bm) {
			seen[serve.Key(bm.Name, a)] = true
			if err := add(kindNamed, "/v1/run", serve.RunRequest{Benchmark: bm.Name, Arch: a}, 0); err != nil {
				return err
			}
		}
	}
	specArch := regconn.Arch{Issue: 4, LoadLatency: 2, CombineConnects: true, Backend: "rc", IntCore: 16, FPCore: 32}
	for _, p := range workload.ProfileNames() {
		for _, seed := range workloadSeeds(b.o.seed, "serve-spec", 8) {
			req := serve.RunRequest{Workload: &workload.Spec{Profile: p, Seed: seed}, Arch: specArch}
			if err := add(kindSpec, "/v1/run", req, 0); err != nil {
				return err
			}
		}
	}
	for _, rec := range probe {
		b.targets = append(b.targets, target{kind: kindReplay, path: "/v1/replay", body: rec.body})
	}
	for _, bm := range bench.All() {
		for c, class := range hotArchs(bm) {
			for _, a := range freshArchs(bm, class) {
				if k := serve.Key(bm.Name, a); !seen[k] {
					seen[k] = true
					if err := add(kindFresh, "/v1/run", serve.RunRequest{Benchmark: bm.Name, Arch: a}, c); err != nil {
						return err
					}
				}
			}
		}
	}
	// Popularity: within each kind, a seeded permutation ranks the keys.
	rng := newRand(b.o.seed, "serve-popularity")
	for i, t := range b.targets {
		b.byKind[t.kind] = append(b.byKind[t.kind], i)
	}
	for k := range b.byKind {
		idx := b.byKind[k]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	b.byKind[kindFresh] = freshOrder(b.targets, b.byKind[kindFresh], len(hotArchs(bench.All()[0])))
	// Compute every hot key once, as a server restarted on its store has.
	var hotIdx []int
	for _, k := range []int{kindNamed, kindSpec, kindReplay} {
		hotIdx = append(hotIdx, b.byKind[k]...)
	}
	w := newWindow()
	b.hot = hotIdx
	b.closedPass(w, hotIdx, &b.chk)
	if w.failed > 0 {
		return fmt.Errorf("serve set-up: %d of %d requests failed", w.failed, w.ops)
	}
	return nil
}

// freshOrder orders the fresh keys idx (indices into targets, in seeded
// order) for use once each, in rounds over the benchmarks: in round r the
// j-th benchmark takes its next key of class (r+j) mod classes. Every
// window then asks for the same benchmarks at the same classes, and the
// seed picks only the load latency and core size of each, and the order:
// a miss costs what its benchmark and class cost to compile and simulate,
// so the misses cost alike on every seed.
func freshOrder(targets []target, idx []int, classes int) []int {
	queue := map[string][][]int{} // benchmark → class → keys, seeded order
	var names []string
	for _, i := range idx {
		t := targets[i]
		if queue[t.bench] == nil {
			names = append(names, t.bench)
			queue[t.bench] = make([][]int, classes)
		}
		queue[t.bench][t.class] = append(queue[t.bench][t.class], i)
	}
	var out []int
	for r, took := 0, true; took; r++ {
		took = false
		for j, name := range names {
			c := (r + j) % classes
			if q := queue[name][c]; len(q) > 0 {
				out = append(out, q[0])
				queue[name][c] = q[1:]
				took = true
			}
		}
	}
	return out
}

func (b *serveBench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
	os.RemoveAll(b.dir)
	runtime.GOMAXPROCS(b.procs)
}

// wrapHandler wraps the server's handler; tests replace it to inject
// faults.
var wrapHandler = func(h http.Handler) http.Handler { return h }

// arrival is one scheduled request.
type arrival struct {
	at     time.Duration // due time from the start of its segment
	target int
	id     int // index in the window
}

// schedule draws the window's arrivals and splits them into segments. Hot
// arrivals are Poisson at serveRate, each a kind by hotShare and then a key
// by Zipf rank within the kind. Fresh pairs split the window into equal
// slots, one pair at a seeded point of each, each pair on the next fresh
// key; both requests of a pair stay in the segment of the first.
func (b *serveBench) schedule(seconds float64) [][]arrival {
	rng := newRand(b.o.seed, "serve-arrivals")
	var zipf [kindFresh]func() int
	for k := range zipf {
		z := newZipf(rng, len(b.byKind[k]))
		idx := b.byKind[k]
		zipf[k] = func() int { return idx[z()] }
	}
	type due struct {
		at     float64 // seconds from the start of the window
		seg    int
		target int
	}
	segLen := seconds / serveSegments
	seg := func(at float64) int { return min(int(at/segLen), serveSegments-1) }
	var all []due
	for t := rng.ExpFloat64() / serveRate; t < seconds; t += rng.ExpFloat64() / serveRate {
		u, kind := rng.Float64(), 0
		for kind < kindFresh-1 && u >= hotShare[kind] {
			u -= hotShare[kind]
			kind++
		}
		all = append(all, due{t, seg(t), zipf[kind]()})
	}
	fresh := b.byKind[kindFresh]
	pairs := min(max(1, int(math.Round(seconds*freshRate))), len(fresh))
	for i, target := range fresh[:pairs] {
		t := (float64(i) + rng.Float64()) * seconds / float64(pairs)
		gap := rng.ExpFloat64() * pairGap.Seconds()
		all = append(all, due{t, seg(t), target}, due{t + gap, seg(t), target})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	out := make([][]arrival, serveSegments)
	for i, d := range all {
		at := time.Duration((d.at - float64(d.seg)*segLen) * float64(time.Second))
		out[d.seg] = append(out[d.seg], arrival{at, d.target, i})
	}
	return out
}

// reqSample is one completed request.
type reqSample struct {
	target         int
	late, lat, svc time.Duration // start−due, end−due, end−start
	cache          string
	err            error // failed check
}

// bodyCheck holds the first 200 body seen per key; every later 200 body
// for the key must equal it byte for byte (a HIT equals the MISS).
type bodyCheck struct {
	mu    sync.Mutex
	first map[int][]byte
}

func (c *bodyCheck) check(t int, rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first == nil {
		c.first = map[int][]byte{}
	}
	body := rec.Body.Bytes()
	first, ok := c.first[t]
	if !ok {
		c.first[t] = append([]byte(nil), body...)
		return nil
	}
	if !bytes.Equal(first, body) {
		return fmt.Errorf("X-Cache %s body differs from the first body for its key", rec.Header().Get("X-Cache"))
	}
	return nil
}

// do sends one request to the handler; id, when set, is its request ID.
func (b *serveBench) do(t int, id string) *httptest.ResponseRecorder {
	tg := b.targets[t]
	req := httptest.NewRequest(http.MethodPost, tg.path, bytes.NewReader(tg.body))
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	return rec
}

// openLoop sends every arrival of one segment at its due time, each from
// its own goroutine, and waits for all of them.
func (b *serveBench) openLoop(w *window, sched []arrival, chk *bodyCheck) []reqSample {
	out := make([]reqSample, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		waitUntil(due)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			t0 := time.Now()
			rec := b.do(a.target, windowID(a.id))
			t1 := time.Now()
			out[i] = reqSample{target: a.target, late: t0.Sub(due), lat: t1.Sub(due), svc: t1.Sub(t0),
				cache: rec.Header().Get("X-Cache"), err: chk.check(a.target, rec)}
		}(i, a)
	}
	wg.Wait()
	for _, s := range out {
		w.ops++
		if s.err != nil {
			w.fail(b.o, "serve %s: %v", b.targets[s.target].path, s.err)
		}
	}
	return out
}

// waitUntil returns at t. The runtime's timers can fire up to about a
// millisecond late on a mostly idle process, so it sleeps to spinSlack
// before t and busy-waits the rest without yielding: the wait then stays
// in this function's frame, and the CPU profile charges it to cpu.bench_s
// rather than to the program (about 0.06 of one CPU at serveRate).
// loadgen.late_ms reports how late the sends still are.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// spinSlack is how long before a due time waitUntil stops sleeping.
const spinSlack = time.Millisecond

// windowID is the request ID of the i-th arrival of a window; span
// metrics count only requests carrying one.
func windowID(i int) string { return "w" + strconv.Itoa(i) }

// closedPass requests every key once from workers clients and returns the
// pass's wall seconds.
func (b *serveBench) closedPass(w *window, order []int, chk *bodyCheck) float64 {
	errs := make([]error, len(order))
	t0 := time.Now()
	forEach(len(order), b.o.workers, func(i int) { errs[i] = chk.check(order[i], b.do(order[i], "")) })
	wall := time.Since(t0).Seconds()
	for i, err := range errs {
		w.ops++
		if err != nil {
			w.fail(b.o, "serve pass %s: %v", b.targets[order[i]].path, err)
		}
	}
	return wall
}

func (b *serveBench) measure(seconds float64, m *meter) (*window, error) {
	w := newWindow()
	segs := b.schedule(seconds)
	rng := newRand(b.o.seed, "serve-pass-order")
	var samples []reqSample
	var passes []float64
	storeHits := 0.0 // store hits inside the window
	ops := 0
	for i, seg := range segs {
		hits0, err := b.metric("store_hits")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			err = m.begin()
		} else {
			err = m.resume()
		}
		if err != nil {
			return nil, err
		}
		samples = append(samples, b.openLoop(w, seg, &b.chk)...)
		ops += len(seg)
		if i == len(segs)-1 {
			err = m.end(ops)
		} else {
			err = m.pause()
		}
		if err != nil {
			return nil, err
		}
		hits1, err := b.metric("store_hits")
		if err != nil {
			return nil, err
		}
		storeHits += hits1 - hits0
		for start := time.Now(); time.Since(start).Seconds() < segmentPassSeconds; {
			order := append([]int(nil), b.hot...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			passes = append(passes, b.closedPass(w, order, &b.chk))
		}
		b.probe.burst(w, segmentProbeBurst)
	}
	var latMS []float64
	failed := 0
	for _, s := range samples {
		if s.err == nil {
			latMS = append(latMS, ms(s.lat))
		} else {
			failed++
		}
	}
	latMS = withFailures(latMS, failed, 1000*seconds)
	w.e2e["serve_p50_ms"] = quantile(latMS, 0.50)
	w.e2e["serve_p99_ms"] = quantile(latMS, 0.99)
	w.e2e["suite_s"] = median(passes)
	// The peak of a typical segment: the largest over five segments reads
	// one of two levels, as a burst of overlapping 16 MiB images before a
	// collection does or does not occur, and spread 0.29 of its median over
	// ten runs.
	w.e2e["peak_rss_mib"] = median(m.peaks)
	b.probe.report(w)
	if m.traced {
		if err := b.layers(w, samples, storeHits); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// metric reads one counter of the server's metric map.
func (b *serveBench) metric(name string) (float64, error) {
	v := b.srv.Metrics().Get(name)
	if v == nil {
		return 0, fmt.Errorf("serve metric %s: not exported", name)
	}
	f, err := strconv.ParseFloat(v.String(), 64)
	if err != nil {
		return 0, fmt.Errorf("serve metric %s: %w", name, err)
	}
	return f, nil
}

// layers reports the serve per-layer metrics of the open-loop window, in
// which the store served storeHits hits.
func (b *serveBench) layers(w *window, samples []reqSample, storeHits float64) error {
	by := map[string][]float64{}
	var late []float64
	hits, oks := 0, 0
	for _, s := range samples {
		late = append(late, ms(s.late))
		if s.err != nil {
			continue
		}
		oks++
		key := s.cache
		if s.cache == "HIT" {
			hits++
			key += "/" + strconv.Itoa(b.targets[s.target].kind)
		}
		by[key] = append(by[key], ms(s.svc))
	}
	w.layer["serve.hit_ms"] = median(by["HIT/"+strconv.Itoa(kindNamed)])
	w.layer["serve.spec_hit_ms"] = median(by["HIT/"+strconv.Itoa(kindSpec)])
	w.layer["serve.replay_hit_ms"] = median(by["HIT/"+strconv.Itoa(kindReplay)])
	w.layer["serve.miss_ms"] = median(by["MISS"])
	w.layer["serve.coalesced_ms"] = median(by["COALESCED"])
	if oks > 0 {
		w.layer["serve.hit_ratio"] = float64(hits) / float64(oks)
	}
	w.layer["loadgen.late_ms"] = quantile(late, 0.99)
	w.layer["serve.store_hits"] = storeHits
	var err error
	if w.layer["serve.store_errors"], err = b.metric("store_errors"); err != nil {
		return err
	}
	self, err := b.spanSelfTimes()
	if err != nil {
		return err
	}
	w.layer["span.cache_lookup_us"] = 1000 * median(self["cache.lookup"])
	w.layer["span.store_read_us"] = 1000 * median(self["store.read"])
	w.layer["span.store_append_ms"] = median(self["store.append"])
	w.layer["span.flight_join_ms"] = median(self["flight/join"])
	w.layer["span.build_ms"] = median(self["build"])
	w.layer["span.execute_ms"] = median(self["execute"])
	return nil
}

// spanSelfTimes reads every retained request trace through GET
// /debug/trace and returns each span's self time in ms — its duration less
// the time its child spans cover — grouped by span name ("flight/join" for
// flights that joined another request's simulation).
func (b *serveBench) spanSelfTimes() (map[string][]float64, error) {
	rec := httptest.NewRecorder()
	b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/trace: status %d", rec.Code)
	}
	var doc obs.TraceFile
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("GET /debug/trace: %w", err)
	}
	return selfTimes(doc.TraceEvents), nil
}

// selfTimes computes span self times from Chrome complete events of the
// window's requests (traces whose request ID is a windowID). Within one
// trace (pid) and lane (tid), a span's children are the spans nested
// directly inside its interval.
func selfTimes(events []obs.TraceEvent) map[string][]float64 {
	inWindow := map[int]bool{}
	for _, e := range events {
		if name, _ := e.Args["name"].(string); e.Ph == "M" && e.Name == "process_name" &&
			strings.HasPrefix(name, "request "+windowID(0)[:1]) {
			inWindow[e.Pid] = true
		}
	}
	type lane struct{ pid, tid int }
	lanes := map[lane][]obs.TraceEvent{}
	for _, e := range events {
		if e.Ph == "X" && inWindow[e.Pid] {
			l := lane{e.Pid, e.Tid}
			lanes[l] = append(lanes[l], e)
		}
	}
	out := map[string][]float64{}
	for _, evs := range lanes {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		child := make([]int64, len(evs)) // µs covered by direct children
		var stack []int
		for i, e := range evs {
			for len(stack) > 0 {
				p := evs[stack[len(stack)-1]]
				if e.Ts+e.Dur <= p.Ts+p.Dur+1 { // 1µs: export rounding
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				child[stack[len(stack)-1]] += e.Dur
			}
			stack = append(stack, i)
		}
		for i, e := range evs {
			name := e.Name
			if role, _ := e.Args["role"].(string); name == "flight" && role == "join" {
				name = "flight/join"
			}
			self := e.Dur - child[i]
			if self < 0 {
				self = 0
			}
			out[name] = append(out[name], float64(self)/1000)
		}
	}
	return out
}

// newZipf returns a sampler of ranks in [0, n) with P(rank k) ∝ 1/(k+1)^zipfS.
func newZipf(rng interface{ Float64() float64 }, n int) func() int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	return func() int {
		u := rng.Float64() * sum
		return sort.SearchFloat64s(cdf, u)
	}
}
