package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"regconn/internal/obs"
)

// runJSON runs the command and decodes its result line.
func runJSON(t *testing.T, args ...string) (report, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--dir", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: result line: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return rep, code
}

// TestShortRunsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks the result line names every metric with its unit.
func TestShortRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for trace, list := range map[string][]metric{"0": endToEnd, "1": perLayer} {
			rep, code := runJSON(t, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
			if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, %+v", name, trace, code, rep)
			}
			if len(rep.Metrics) != len(list) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, trace, len(rep.Metrics), len(list))
			}
			cpu := 0.0
			for _, m := range list {
				got, ok := rep.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: no metric %s", name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace %s: %s unit %q, want %q", name, trace, m.name, got.Unit, m.unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
				if strings.HasPrefix(m.name, "cpu.") {
					cpu += got.Value
				}
			}
			if trace == "1" && cpu <= 0 {
				t.Errorf("%s: CPU profile attributed no time", name)
			}
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json declares exactly the
// workloads and metrics the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
	for _, c := range []struct {
		what string
		decl []declared
		list []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.decl) != len(c.list) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the command reports %d", c.what, len(c.decl), len(c.list))
		}
		for i, d := range c.decl {
			if d.Name != c.list[i].name || d.Unit != c.list[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", c.what, i, d.Name, d.Unit, c.list[i].name, c.list[i].unit)
			}
		}
	}
}

func testOptions(t *testing.T) *options {
	var log bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(log.String())
		}
	})
	return &options{seed: 5, workers: 2, dir: t.TempDir(), log: &log}
}

// TestCorruptTraceByteFailsOp flips one payload byte of one recorded trace:
// its replay must count as a failed operation, the other as a success.
func TestCorruptTraceByteFailsOp(t *testing.T) {
	o := testOptions(t)
	corpus, err := recordCorpus(centerRC()[:2], o.workers)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), corpus[1].body...)
	body[len(body)/2] ^= 0x20
	corpus[1].body = body
	w := newWindow()
	var s replayStats
	s.pass(o, w, corpus, []int{0, 1})
	if w.ops != 2 || w.failed != 1 {
		t.Fatalf("ops %d failed %d, want 2 and 1", w.ops, w.failed)
	}
}

// tamperHits corrupts the body of every cache hit, as a damaged LRU or
// store would.
type tamperHits struct{ h http.Handler }

func (t tamperHits) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Header().Get("X-Cache") == "HIT" && len(body) > 0 {
		body[len(body)/2] ^= 0x01
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestTamperedCachedBodyFailsOp serves cache hits with one byte changed:
// each must count as a failed operation against the body set-up saw.
func TestTamperedCachedBodyFailsOp(t *testing.T) {
	o := testOptions(t)
	inst, err := setupServe(o, false)
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*serveBench)
	defer b.close()
	order := b.byKind[kindNamed][:4]
	w := newWindow()
	b.closedPass(w, order, &b.chk)
	if w.failed != 0 {
		t.Fatalf("untampered pass: %d of %d failed", w.failed, w.ops)
	}
	b.h = tamperHits{b.srv}
	w = newWindow()
	b.closedPass(w, order, &b.chk)
	if w.ops != 4 || w.failed != 4 {
		t.Fatalf("tampered pass: ops %d failed %d, want 4 and 4", w.ops, w.failed)
	}
}

// TestFreshTraffic checks every seed's window asks for the same number of
// fresh pairs, with each benchmark at distinct classes and every class
// equally often.
func TestFreshTraffic(t *testing.T) {
	const benches, classes, variants = 12, 6, 9
	for _, seed := range []int64{1, 2, 3} {
		b := &serveBench{o: &options{seed: seed}}
		for k := kindNamed; k < kindFresh; k++ {
			b.targets = append(b.targets, target{kind: k})
			b.byKind[k] = []int{k}
		}
		var fresh []int
		for bm := 0; bm < benches; bm++ {
			for c := 0; c < classes; c++ {
				for v := 0; v < variants; v++ {
					fresh = append(fresh, len(b.targets))
					b.targets = append(b.targets, target{kind: kindFresh, bench: strconv.Itoa(bm), class: c})
				}
			}
		}
		newRand(seed, "test").Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		b.byKind[kindFresh] = freshOrder(b.targets, fresh, classes)
		if len(b.byKind[kindFresh]) != len(fresh) {
			t.Fatalf("seed %d: %d fresh keys ordered, want %d", seed, len(b.byKind[kindFresh]), len(fresh))
		}
		sent := map[int]int{}
		segs := b.schedule(25)
		if len(segs) != serveSegments {
			t.Fatalf("seed %d: %d segments, want %d", seed, len(segs), serveSegments)
		}
		for _, seg := range segs {
			for _, a := range seg {
				if b.targets[a.target].kind == kindFresh {
					sent[a.target]++
				}
			}
		}
		perBench := map[string]map[int]bool{}
		perClass := map[int]int{}
		for i, n := range sent {
			if n != 2 {
				t.Errorf("seed %d: fresh key %d sent %d times, want 2", seed, i, n)
			}
			tg := b.targets[i]
			if perBench[tg.bench] == nil {
				perBench[tg.bench] = map[int]bool{}
			}
			perBench[tg.bench][tg.class] = true
			perClass[tg.class]++
		}
		if len(sent) != 36 {
			t.Errorf("seed %d: %d fresh pairs in 25 s, want 36", seed, len(sent))
		}
		for bm, cl := range perBench {
			if len(cl) != 3 {
				t.Errorf("seed %d: benchmark %s at %d distinct classes, want 3", seed, bm, len(cl))
			}
		}
		for c := 0; c < classes; c++ {
			if perClass[c] != 6 {
				t.Errorf("seed %d: class %d asked %d times, want 6", seed, c, perClass[c])
			}
		}
	}
}

// TestSelfTimes checks span self times subtract directly nested children
// and skip requests outside the window.
func TestSelfTimes(t *testing.T) {
	ev := []obs.TraceEvent{
		obs.MetaProcessName(0, "request "+windowID(7)),
		obs.Complete("run", 0, 100, 0, 0),
		obs.Complete("point", 10, 80, 0, 0),
		obs.Complete("cache.lookup", 10, 5, 0, 0),
		obs.Complete("flight", 20, 60, 0, 0),
		obs.Complete("build", 25, 30, 0, 0),
		obs.MetaProcessName(1, "request 0123456789abcdef"),
		obs.Complete("build", 0, 999, 1, 0),
	}
	got := selfTimes(ev)
	want := map[string]float64{"run": 0.020, "point": 0.015, "cache.lookup": 0.005, "flight": 0.030, "build": 0.030}
	for name, v := range want {
		if len(got[name]) != 1 || got[name][0] != v {
			t.Errorf("%s: self %v ms, want [%v]", name, got[name], v)
		}
	}
}

// TestFailedRunPrintsResult runs the serve workload with every cache hit
// tampered: the command must still print a parseable result line, with
// correct false, failed ops counted and every metric finite, and exit 1.
func TestFailedRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload")
	}
	defer func(w func(http.Handler) http.Handler) { wrapHandler = w }(wrapHandler)
	wrapHandler = func(h http.Handler) http.Handler { return tamperHits{h} }
	for _, trace := range []string{"0", "1"} {
		rep, code := runJSON(t, "--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", trace)
		if code != 1 || rep.Correct || rep.Failed == 0 || rep.Failed > rep.Attempted {
			t.Fatalf("trace %s: exit %d, correct %v, failed %d of %d; want exit 1 with failures",
				trace, code, rep.Correct, rep.Failed, rep.Attempted)
		}
		if trace == "0" && rep.Metrics["serve_p99_ms"].Value < 1000 {
			t.Errorf("serve_p99_ms = %v ms; failed requests must count as missing any limit",
				rep.Metrics["serve_p99_ms"].Value)
		}
	}
}

// TestWithFailures checks failed operations are charged a finite latency
// no less than the window or the slowest success.
func TestWithFailures(t *testing.T) {
	for _, c := range []struct {
		ok       []float64
		n        int
		windowMS float64
		p99      float64
	}{
		{[]float64{1, 2, 3}, 0, 100, 2.98},
		{[]float64{1, 2, 3}, 1, 100, 97.09},
		{[]float64{1, 2, 300}, 2, 100, 300},
		{nil, 2, 100, 100},
	} {
		got := quantile(withFailures(c.ok, c.n, c.windowMS), 0.99)
		if math.IsInf(got, 0) || math.Abs(got-c.p99) > 1e-9 {
			t.Errorf("withFailures(%v, %d, %v): p99 %v, want %v", c.ok, c.n, c.windowMS, got, c.p99)
		}
	}
}
