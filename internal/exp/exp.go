// Package exp regenerates every table and figure of the paper's evaluation
// (§5.3): Figure 7 (unlimited-register speedups by issue rate), Figure 8
// (speedup vs core register count), Figure 9 (code-size increase), Figures
// 10/11 (speedup vs issue rate at 2- and 4-cycle load latency), Figure 12
// (RC implementation scenarios), Figure 13 (memory channels vs RC), plus
// Table 1 (latencies) and two ablations (§2.2 combined connects, §2.3
// automatic-reset models). Each experiment returns a Table whose rows are
// benchmarks and whose columns are the paper's series.
package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/flight"
	"regconn/internal/machine"
	"regconn/internal/obs"
)

// Result is one simulated data point.
type Result struct {
	Cycles   int64
	Instrs   int64
	Connects int64
	Growth   float64 // fractional code-size increase (Figure 9)
	SaveRest float64 // save/restore share of growth (Figure 9 black bar)

	// Stats is the full cycle-ledger export of the simulation (stall
	// breakdown, issue-slot histogram, map-table telemetry).
	Stats machine.Stats
}

// Runner executes benchmark/architecture pairs with memoization — the
// baseline run of each benchmark is shared by every figure. It is safe for
// concurrent use: duplicate in-flight points collapse onto one waiter-
// counted flight (internal/flight, the same mechanism as the rcserve
// daemon), so one caller abandoning a point cannot cancel the simulation
// for the others, and each figure generator fans its point grid out across
// a bounded worker pool (warm) before a deterministic sequential pass
// assembles the table from the memoized results.
type Runner struct {
	mu      sync.Mutex
	done    map[string]memo        // completed points (results and non-cancel errors)
	flights *flight.Group[*Result] // in-flight points
	fronts  FrontCache             // compiled front ends, shared by every point

	// Workers bounds the worker pool (0 = GOMAXPROCS, 1 = sequential).
	Workers int

	// Benchmarks restricts the suite (nil = all twelve).
	Benchmarks []bench.Benchmark

	// Progress, when set, is called after each point of a warm pass
	// completes, with the number of finished points and the pass total.
	// It is the hook live dashboards (rcexp -progress, rcserve's
	// /v1/sweeps) build on. Called from worker goroutines — must be
	// safe for concurrent use.
	Progress func(done, total int)

	// runPoint overrides the execution primitive (nil = RunPoint). It is a
	// test seam: flight semantics — waiter counting, cancellation of
	// abandoned executions — are probed with deterministic stand-ins
	// instead of real multi-second simulations.
	runPoint func(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error)
}

// memo is one completed point: the memoized result or its terminal error.
type memo struct {
	res *Result
	err error
}

// NewRunner returns a Runner over the full suite.
func NewRunner() *Runner {
	return &Runner{Benchmarks: bench.All()}
}

// NewQuickRunner returns a Runner over a reduced suite (one call-heavy
// integer, one loop integer, one FP benchmark) for fast smoke runs.
func NewQuickRunner() *Runner {
	r := NewRunner()
	var keep []bench.Benchmark
	for _, b := range bench.All() {
		switch b.Name {
		case "cpp", "espresso", "matrix300":
			keep = append(keep, b)
		}
	}
	r.Benchmarks = keep
	return r
}

// key identifies a memoized point. The architecture is canonicalized
// first, so configurations that resolve to the same backend — a legacy
// Mode value and its registry name, e.g. Mode: WithRC and Backend: "rc" —
// share one memo entry instead of simulating twice (the daemon's point
// keys canonicalize the same way; see serve.Key).
func key(name string, a regconn.Arch) string {
	return fmt.Sprintf("%s/%+v", name, a.Canonical())
}

// Run builds and simulates one benchmark under one architecture, verifying
// the result against the interpreter oracle. Concurrent calls for the same
// point share one execution.
func (r *Runner) Run(bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	return r.RunContext(context.Background(), bm, arch)
}

// canceledErr reports whether err is a cancellation (never memoized).
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunContext is Run under a cancelable context. Concurrent requests for
// one point join a waiter-counted flight: the execution's context is
// canceled only when the last waiter has gone away, so an impatient caller
// gets its own context error while the remaining waiters still receive the
// completed result. Cancellation never poisons the memo — only completed
// results and terminal (non-cancel) errors are stored, and an abandoned
// execution's key is released immediately, so the next request recomputes
// instead of replaying a stale cancellation forever.
func (r *Runner) RunContext(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := key(bm.Name, arch)
	r.mu.Lock()
	if m, ok := r.done[k]; ok {
		r.mu.Unlock()
		return m.res, m.err
	}
	if r.flights == nil {
		r.flights = flight.NewGroup[*Result]()
	}
	g := r.flights
	run := r.runPoint
	if run == nil {
		run = func(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
			return RunPoint(ctx, &r.fronts, bm, arch)
		}
	}
	r.mu.Unlock()
	res, err, _ := g.Do(ctx, k, func(fctx context.Context) (*Result, error) {
		res, err := run(fctx, bm, arch)
		if err == nil || !canceledErr(err) {
			// Memoize inside the flight, before it completes: a caller
			// arriving after completion but before memoization would
			// otherwise start a duplicate simulation.
			r.mu.Lock()
			if r.done == nil {
				r.done = map[string]memo{}
			}
			r.done[k] = memo{res, err}
			r.mu.Unlock()
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// arenas pools simulation arenas across points and workers: a sweep's
// thousands of runs reuse a handful of warm arenas (one per concurrent
// worker) instead of reallocating the simulator state per point. Safe
// because an arena's Reset restores power-on state and RunPoint copies
// everything it returns out of the arena before putting it back.
var arenas = sync.Pool{New: func() any { return regconn.NewArena() }}

// RunPoint is the unmemoized build+simulate+verify of one data point,
// canceled through ctx, with the front end taken from fronts. Every
// point also runs the static map-state verifier (Arch.Verify): a sweep
// result is only reported for code rclint proved correct. It is the
// execution primitive behind Runner.Run and the serve daemon's cold path.
// When the context carries an obs span (a traced rcserve request), the
// build and execute phases open child spans — the build span's front
// attr says whether the front was a cache hit, a miss or a join; with no
// span in the context the instrumentation is nil no-ops.
func RunPoint(ctx context.Context, fronts *FrontCache, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	arch.Verify = true
	buildCtx, buildSpan := obs.StartSpan(ctx, "build")
	ex, src, err := fronts.Build(buildCtx, bm, arch)
	buildSpan.Set("front", src).End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bm.Name, err)
	}
	arena := arenas.Get().(*regconn.Arena)
	defer arenas.Put(arena)
	execCtx, execSpan := obs.StartSpan(ctx, "execute")
	res, err := arena.VerifyContext(execCtx, ex)
	if err == nil {
		execSpan.Set("cycles", res.Cycles).Set("instrs", res.Instrs)
	}
	execSpan.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bm.Name, err)
	}
	if res.RetInt != bm.Expect {
		return nil, fmt.Errorf("%s: checksum %d, want %d", bm.Name, res.RetInt, bm.Expect)
	}
	// Every experiment point continuously proves the cycle ledger closes;
	// a simulator change that loses cycles fails the whole figure.
	if err := res.CheckLedger(); err != nil {
		return nil, fmt.Errorf("%s: %w", bm.Name, err)
	}
	// res aliases the pooled arena: everything returned is copied out here
	// (Stats deep-copies the histogram and map-telemetry slices).
	return &Result{
		Cycles:   res.Cycles,
		Instrs:   res.Instrs,
		Connects: res.Connects,
		Growth:   ex.CodeGrowth(),
		SaveRest: ex.SaveRestoreGrowth(),
		Stats:    res.Stats(),
	}, nil
}

// point is one benchmark×architecture coordinate of a figure's grid.
type point struct {
	bm   bench.Benchmark
	arch regconn.Arch
}

// workers returns the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForAll runs f(i) for every i in [0, n) across the bounded worker pool.
func (r *Runner) ForAll(n int, f func(i int)) {
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	sem := make(chan struct{}, w)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f(i)
		}(i)
	}
	wg.Wait()
}

// warm simulates the given points concurrently, populating the memo cache
// so the figure's sequential pass — which keeps row order and error
// reporting deterministic — hits only memoized results. Errors are left in
// the cache for that pass to surface. When a Progress hook is set, the
// warm pass also runs in sequential mode (the hook has to see the grid
// advance), reporting after each unique point completes.
func (r *Runner) warm(pts []point) {
	progress := r.Progress
	if r.workers() <= 1 && progress == nil {
		return
	}
	seen := make(map[string]bool, len(pts))
	uniq := make([]point, 0, len(pts))
	for _, p := range pts {
		if k := key(p.bm.Name, p.arch); !seen[k] {
			seen[k] = true
			uniq = append(uniq, p)
		}
	}
	var done atomic.Int64
	r.ForAll(len(uniq), func(i int) {
		_, _ = r.Run(uniq[i].bm, uniq[i].arch)
		if progress != nil {
			progress(int(done.Add(1)), len(uniq))
		}
	})
}

// warmSpeedups warms the points plus each benchmark's baseline (the
// Speedup denominator).
func (r *Runner) warmSpeedups(pts []point) {
	withBase := make([]point, 0, len(pts)+len(r.Benchmarks))
	seen := map[string]bool{}
	for _, p := range pts {
		if !seen[p.bm.Name] {
			seen[p.bm.Name] = true
			withBase = append(withBase, point{p.bm, regconn.Baseline()})
		}
		withBase = append(withBase, p)
	}
	r.warm(withBase)
}

// BaselineCycles returns the speedup denominator of §5.3 for one
// benchmark: a single-issue processor with unlimited registers and
// conventional scalar optimization.
func (r *Runner) BaselineCycles(bm bench.Benchmark) (int64, error) {
	res, err := r.Run(bm, regconn.Baseline())
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// Speedup runs the benchmark under arch and returns baseline/arch cycles.
func (r *Runner) Speedup(bm bench.Benchmark, arch regconn.Arch) (float64, error) {
	base, err := r.BaselineCycles(bm)
	if err != nil {
		return 0, err
	}
	res, err := r.Run(bm, arch)
	if err != nil {
		return 0, err
	}
	return float64(base) / float64(res.Cycles), nil
}

// archFor applies the paper's per-class convention (§5.2): integer
// benchmarks vary the integer core with a fixed 64-entry FP file; FP
// benchmarks vary the FP core with a fixed 64-entry integer file.
func archFor(bm bench.Benchmark, core int, base regconn.Arch) regconn.Arch {
	if bm.FP {
		base.FPCore = core
		base.IntCore = 64
	} else {
		base.IntCore = core
		base.FPCore = 64
	}
	return base
}

// sweepArch is the shared sweep-grid constructor: it stamps the register
// mode onto a base configuration and applies archFor's per-class core-size
// convention. Every figure's grid — and the golden ledger grid — is a
// partial application of it, so a sweep axis is added in exactly one
// place.
func sweepArch(bm bench.Benchmark, core int, mode regconn.RegMode, base regconn.Arch) regconn.Arch {
	base.Mode = mode
	return archFor(bm, core, base)
}

// IntCores and FPCores are the experimental register-file sizes of §5.2.
var (
	IntCores = []int{8, 16, 24, 32, 64}
	FPCores  = []int{16, 32, 48, 64, 128}
)

// coresFor returns the core-size axis for a benchmark's class.
func coresFor(bm bench.Benchmark) []int {
	if bm.FP {
		return FPCores
	}
	return IntCores
}

// Table is one reproduced table/figure.
type Table struct {
	ID    string // "fig8", "table1", ...
	Title string
	Cols  []string
	Rows  []Row
	Notes []string
}

// Row is one table line.
type Row struct {
	Name string
	Vals []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, vals ...float64) {
	t.Rows = append(t.Rows, Row{name, vals})
}

// AddMeanRow appends a geometric-mean summary row over the current rows.
func (t *Table) AddMeanRow() {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Vals)
	vals := make([]float64, n)
	for c := 0; c < n; c++ {
		logSum, cnt := 0.0, 0
		for _, r := range t.Rows {
			if c < len(r.Vals) && r.Vals[c] > 0 {
				logSum += math.Log(r.Vals[c])
				cnt++
			}
		}
		if cnt > 0 {
			vals[c] = math.Exp(logSum / float64(cnt))
		}
	}
	t.Rows = append(t.Rows, Row{"geomean", vals})
}

// CSV renders the table as comma-separated values (header row first) for
// plotting tools.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark")
	for _, c := range t.Cols {
		sb.WriteByte(',')
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		sb.WriteString(r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&sb, ",%.4f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Format renders the table as aligned ASCII text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	w := 8
	for _, c := range t.Cols {
		if len(c)+2 > w {
			w = len(c) + 2
		}
	}
	nameW := 10
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s", nameW+2, "benchmark")
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "%*s", w, c)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", nameW+2+w*len(t.Cols)))
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", nameW+2, r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&sb, "%*.2f", w, v)
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// ErrUnknownExperiment is wrapped by Generate when the experiment id is
// not in Experiments(); callers branch with errors.Is (a bad id is the
// client's fault, a failed generation is ours).
var ErrUnknownExperiment = errors.New("unknown experiment")

// Experiments lists every reproducible experiment by id.
func Experiments() []string {
	return []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "rivals", "models", "combined", "windows", "os", "pressure", "accum", "scenarios"}
}

// Generate dispatches on an experiment id.
func (r *Runner) Generate(id string) ([]*Table, error) {
	switch id {
	case "table1":
		return []*Table{Table1()}, nil
	case "fig7":
		t, err := r.Figure7()
		return []*Table{t}, err
	case "fig8":
		return r.Figure8()
	case "fig9":
		return r.Figure9()
	case "fig10":
		t, err := r.Figure10()
		return []*Table{t}, err
	case "fig11":
		t, err := r.Figure11()
		return []*Table{t}, err
	case "fig12":
		t, err := r.Figure12()
		return []*Table{t}, err
	case "fig13":
		t, err := r.Figure13()
		return []*Table{t}, err
	case "rivals":
		t, err := r.Rivals()
		return []*Table{t}, err
	case "models":
		t, err := r.AblationModels()
		return []*Table{t}, err
	case "combined":
		t, err := r.AblationCombined()
		return []*Table{t}, err
	case "windows":
		t, err := r.AblationWindows()
		return []*Table{t}, err
	case "os":
		t, err := r.AblationOS()
		return []*Table{t}, err
	case "pressure":
		t, err := r.AblationPressure()
		return []*Table{t}, err
	case "accum":
		t, err := r.AblationAccum()
		return []*Table{t}, err
	case "scenarios":
		t, err := r.Scenarios(ScenarioConfig{})
		return []*Table{t}, err
	}
	ids := strings.Join(Experiments(), ", ")
	return nil, fmt.Errorf("exp: %w %q (have: %s)", ErrUnknownExperiment, id, ids)
}

// sortedBench returns the runner's suite in stable order.
func (r *Runner) sortedBench() []bench.Benchmark {
	out := append([]bench.Benchmark(nil), r.Benchmarks...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FP != out[j].FP {
			return !out[i].FP
		}
		return false // preserve suite order within class
	})
	return out
}
