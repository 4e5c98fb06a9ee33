package main

// The suite workload: regenerating every table and figure, as rcexp does,
// on a fresh exp.Runner per pass.

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"regconn/internal/exp"
)

// experimentIDs are the experiments one suite pass generates.
func experimentIDs() []string { return exp.Experiments() }

// suiteBench is the suite workload. The scenarios table sweeps generated
// workloads whose seeds derive from the benchmark seed; every other table
// is fixed.
type suiteBench struct {
	o             *options
	scenarioSeeds []int64
	probe         *prober
}

// suiteProbeBurst is how many probe passes follow each suite pass.
const suiteProbeBurst = 15

func setupSuite(o *options, _ bool) (instance, error) {
	probe, err := recordCorpus(centerRC(), o.workers)
	if err != nil {
		return nil, err
	}
	return &suiteBench{o: o, scenarioSeeds: workloadSeeds(o.seed, "scenarios", 3), probe: newProber(o, probe)}, nil
}

func (s *suiteBench) close() {}

// generate is one operation: Generate(id), with the scenarios table on the
// benchmark's seeds.
func (s *suiteBench) generate(r *exp.Runner, id string) ([]*exp.Table, error) {
	if id == "scenarios" {
		t, err := r.Scenarios(exp.ScenarioConfig{Seeds: s.scenarioSeeds})
		return []*exp.Table{t}, err
	}
	return r.Generate(id)
}

func (s *suiteBench) measure(seconds float64, m *meter) (*window, error) {
	w := newWindow()
	var passes, p50s, p99s []float64
	perID := map[string][]float64{}
	var digest string
	ids := experimentIDs()
	ops := 0 // Generate calls; the probe's replays are not the window's
	if err := m.begin(); err != nil {
		return nil, err
	}
	for done := false; !done; {
		p0 := time.Now()
		r := exp.NewRunner()
		r.Workers = s.o.workers
		h := sha256.New()
		failed := 0
		var latMS []float64
		for _, id := range ids {
			t0 := time.Now()
			tables, err := s.generate(r, id)
			d := time.Since(t0)
			w.ops++
			ops++
			if err != nil {
				w.fail(s.o, "generate %s: %v", id, err)
				failed++
				continue
			}
			latMS = append(latMS, ms(d))
			perID[id] = append(perID[id], d.Seconds())
			for _, t := range tables {
				h.Write([]byte(t.ID + "\n" + t.CSV()))
			}
		}
		passes = append(passes, time.Since(p0).Seconds())
		latMS = withFailures(latMS, failed, 1000*seconds)
		p50s = append(p50s, quantile(latMS, 0.50))
		p99s = append(p99s, quantile(latMS, 0.99))
		// Every pass computes the same tables: a pass that disagrees with
		// the first fails all its operations.
		if d := hex.EncodeToString(h.Sum(nil)); failed == 0 && digest == "" {
			digest = d
			s.o.log.Write([]byte("suite: tables digest " + d + "\n"))
		} else if failed == 0 && d != digest {
			for range ids {
				w.fail(s.o, "suite: pass tables digest %s, first pass %s", d, digest)
			}
		}
		// The probe runs between passes, outside the window.
		var err error
		if done = windowDone(sum(passes), seconds, passes); done {
			err = m.end(ops)
		} else {
			err = m.pause()
		}
		if err != nil {
			return nil, err
		}
		s.probe.burst(w, suiteProbeBurst)
		if !done {
			if err := m.resume(); err != nil {
				return nil, err
			}
		}
	}
	w.e2e["suite_s"] = median(passes)
	// A pass has only one latency per experiment, so its 99th percentile
	// is its slowest experiment; the median over passes damps one-off
	// stalls as suite_s does.
	w.e2e["serve_p50_ms"] = median(p50s)
	w.e2e["serve_p99_ms"] = median(p99s)
	for id, secs := range perID {
		w.layer["exp."+id+"_s"] = median(secs)
	}
	s.probe.report(w)
	return w, nil
}
