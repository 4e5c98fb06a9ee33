// Command perfbench is the repository benchmark: it drives the figure
// suite (exp.Runner.Generate), trace replay (workload.DecodeTrace +
// Trace.Replay) and the rcserve request path (serve.Server.ServeHTTP,
// in-process) under named, seeded workloads, checks every output, and
// prints the metrics as one JSON line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload suite|replay|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// half the window untraced and half traced (CPU profile, allocation count,
// per-call spans, rcserve request tracing) and reports the per-layer
// metrics plus the tracing overhead. README.md describes every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// metric is one reported metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd lists the end-to-end metrics, reported by every workload with
// --trace 0.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"replay_minstr_per_s", "Minstr/s"},
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the per-layer metrics, reported by every workload with
// --trace 1. A metric of a layer the workload does not exercise reads 0.
var perLayer = func() []metric {
	var out []metric
	for _, l := range layerNames {
		out = append(out, metric{"cpu." + l + "_s", "s"})
	}
	out = append(out, metric{"alloc_mib_per_op", "MiB"}, metric{"host.busy_ratio", "ratio"})
	for _, id := range experimentIDs() {
		out = append(out, metric{"exp." + id + "_s", "s"})
	}
	out = append(out,
		metric{"replay.decode_ms", "ms"},
		metric{"replay.run_ms", "ms"},
		metric{"sim.ns_per_instr", "ns"},
		metric{"sim.instrs", "count"},
		metric{"sim.cycles", "count"},
		metric{"serve.hit_ms", "ms"},
		metric{"serve.spec_hit_ms", "ms"},
		metric{"serve.replay_hit_ms", "ms"},
		metric{"serve.miss_ms", "ms"},
		metric{"serve.coalesced_ms", "ms"},
		metric{"serve.hit_ratio", "ratio"},
		metric{"serve.store_hits", "count"},
		metric{"serve.store_errors", "count"},
		metric{"span.cache_lookup_us", "us"},
		metric{"span.store_read_us", "us"},
		metric{"span.store_append_ms", "ms"},
		metric{"span.flight_join_ms", "ms"},
		metric{"span.build_ms", "ms"},
		metric{"span.execute_ms", "ms"},
		metric{"loadgen.late_ms", "ms"},
	)
	for _, m := range endToEnd[1:] {
		out = append(out, metric{"overhead." + m.name, m.unit})
	}
	return out
}()

// options carries what every workload needs.
type options struct {
	seed    int64
	workers int       // worker goroutines: one per CPU
	dir     string    // scratch directory (server stores)
	log     io.Writer // human-readable progress and digests
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload for about seconds and returns its
	// results; m brackets the measured window.
	measure(seconds float64, m *meter) (*window, error)
	close()
}

// setupFunc sets a workload up; traced selects rcserve request tracing.
type setupFunc func(o *options, traced bool) (instance, error)

var workloads = map[string]setupFunc{
	"suite":  setupSuite,
	"replay": setupReplay,
	"serve":  setupServe,
}

// window is what one measured window produced.
type window struct {
	ops, failed int
	e2e         map[string]float64 // end-to-end metrics except setup_s
	layer       map[string]float64 // per-layer metrics the workload sets
}

func newWindow() *window {
	return &window{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation.
func (w *window) fail(o *options, format string, args ...any) {
	w.failed++
	fmt.Fprintf(o.log, "FAIL: "+format+"\n", args...)
}

// meter brackets a measured window: it reads the peak resident set over
// the window and, when traced, profiles the CPU and counts heap allocation.
// A workload may pause it to measure something else inside its run; the
// paused stretches are not part of the window.
type meter struct {
	traced bool

	prof   bytes.Buffer
	alloc0 float64
	wall0  time.Time

	ops       int       // operations in the window
	wall      float64   // window seconds
	peakRSS   float64   // VmHWM over the window, MiB
	peaks     []float64 // VmHWM of each stretch between pauses, MiB
	allocMiB  float64
	cpuLayers map[string]float64
}

// begin opens the window.
func (m *meter) begin() error {
	m.cpuLayers = map[string]float64{}
	return m.resume()
}

// resume restarts the window after a pause.
func (m *meter) resume() error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	m.wall0 = time.Now()
	if m.traced {
		m.alloc0 = totalAllocMiB()
		m.prof.Reset()
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return fmt.Errorf("CPU profile: %w", err)
		}
	}
	return nil
}

// pause stops the window until resume.
func (m *meter) pause() error {
	m.wall += time.Since(m.wall0).Seconds()
	peak, err := peakRSSMiB()
	if err != nil {
		return err
	}
	m.peakRSS = max(m.peakRSS, peak)
	m.peaks = append(m.peaks, peak)
	if m.traced {
		pprof.StopCPUProfile()
		m.allocMiB += totalAllocMiB() - m.alloc0
		layers, err := cpuByLayer(m.prof.Bytes())
		if err != nil {
			return err
		}
		for l, s := range layers {
			m.cpuLayers[l] += s
		}
	}
	return nil
}

// end closes the window, in which ops operations ran.
func (m *meter) end(ops int) error {
	m.ops = ops
	return m.pause()
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// report is the benchmark's result line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBenchmark sets the workload up and measures it. With traced false the
// report holds every end-to-end metric; with traced true, every per-layer
// metric.
func runBenchmark(setup setupFunc, o *options, seconds float64, traced bool) (*report, error) {
	rep := &report{Metrics: map[string]metricJSON{}}
	if !traced {
		var setups []float64
		var inst instance
		for i := 0; i < setupRepeats; i++ {
			if inst != nil {
				inst.close()
			}
			t0 := time.Now()
			var err error
			if inst, err = setup(o, false); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer inst.close()
		w, _, err := measure(inst, o, seconds, false)
		if err != nil {
			return nil, err
		}
		w.e2e["setup_s"] = median(setups)
		rep.fill(w, endToEnd, w.e2e)
		return rep, nil
	}

	// Traced: the first half of the window runs untraced and the second
	// traced, so the overhead of tracing reads as their difference.
	plain, err := setup(o, false)
	if err != nil {
		return nil, err
	}
	wu, _, err := measure(plain, o, seconds/2, false)
	plain.close()
	if err != nil {
		return nil, err
	}
	inst, err := setup(o, true)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	w, m, err := measure(inst, o, seconds/2, true)
	if err != nil {
		return nil, err
	}
	for _, mt := range endToEnd[1:] {
		w.layer["overhead."+mt.name] = w.e2e[mt.name] - wu.e2e[mt.name]
	}
	program := 0.0 // CPU seconds of the program, the benchmark's own excluded
	for l, s := range m.cpuLayers {
		w.layer["cpu."+l+"_s"] = s
		if l != benchLayer {
			program += s
		}
	}
	if m.ops > 0 {
		w.layer["alloc_mib_per_op"] = m.allocMiB / float64(m.ops)
	}
	w.layer["host.busy_ratio"] = program / m.wall / float64(o.workers)
	w.ops += wu.ops
	w.failed += wu.failed
	rep.fill(w, perLayer, w.layer)
	return rep, nil
}

func measure(inst instance, o *options, seconds float64, traced bool) (*window, *meter, error) {
	m := &meter{traced: traced}
	w, err := inst.measure(seconds, m)
	if err != nil {
		return nil, nil, err
	}
	// A workload whose window has several stretches may report a peak of
	// its own; otherwise peak_rss_mib is the largest over the window.
	if _, ok := w.e2e["peak_rss_mib"]; !ok {
		w.e2e["peak_rss_mib"] = m.peakRSS
	}
	fmt.Fprintf(o.log, "window: %d ops, %d failed, peak RSS %.1f MiB\n", w.ops, w.failed, w.e2e["peak_rss_mib"])
	for k, v := range w.e2e {
		fmt.Fprintf(o.log, "  %s = %.6g\n", k, v)
	}
	return w, m, nil
}

// fill copies the listed metrics into the report (0 for any the workload
// did not set) with the window's operation counts.
func (r *report) fill(w *window, list []metric, vals map[string]float64) {
	for _, mt := range list {
		r.Metrics[mt.name] = metricJSON{Value: vals[mt.name], Unit: mt.unit}
	}
	r.Attempted = w.ops
	r.Failed = w.failed
	r.Correct = w.failed == 0 && w.ops > 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command without the process exit, so tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: suite, replay or serve")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "tmp"), "scratch directory for server stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload suite|replay|serve, --seconds > 0, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := &options{seed: *seed, workers: runtime.NumCPU(), dir: *dir, log: stderr}
	rep, err := runBenchmark(setup, o, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their checks\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}
