package exp

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/machine"
	"regconn/internal/prof"
)

// TestAttributionMatchesLedgerOnGoldenGrid runs every golden
// benchmark×config point once per observer — none, the per-PC profile
// (Arch.Profile), a text trace, an event ring — and proves two things:
// every observed run is bit-identical to the recorded unobserved golden
// behaviour (the observer observes, it never perturbs), and the per-PC
// attribution columns sum bit-exactly to the run's ledger buckets
// (prof.CrossCheck).
func TestAttributionMatchesLedgerOnGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid attribution check is not -short")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden_center.json"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var pts []goldenPoint
	if err := json.Unmarshal(data, &pts); err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenPoint{}
	for _, p := range pts {
		want[p.Benchmark+"/"+p.Config] = p
	}
	observers := []struct {
		name    string
		profile bool
		obs     func() machine.Observer
	}{
		{"none", false, func() machine.Observer { return nil }},
		{"pcprof", true, func() machine.Observer { return nil }},
		{"text-trace", false, func() machine.Observer { return machine.NewTextTrace(io.Discard, 0) }},
		{"event-ring", false, func() machine.Observer { return machine.NewEventRing(0) }},
	}

	for _, bm := range bench.All() {
		bm := bm
		for _, gc := range LedgerConfigs(bm) {
			gc := gc
			t.Run(bm.Name+"/"+gc.Name, func(t *testing.T) {
				t.Parallel()
				w, ok := want[bm.Name+"/"+gc.Name]
				if !ok {
					t.Fatalf("no golden point for %s/%s", bm.Name, gc.Name)
				}
				ex, err := regconn.Build(bm.Build(), gc.Arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				for _, o := range observers {
					t.Run(o.name, func(t *testing.T) {
						ex.Arch.Profile = o.profile
						res, err := ex.RunObserved(context.Background(), o.obs())
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						if res.Cycles != w.Cycles || res.Instrs != w.Instrs ||
							res.Connects != w.Connects || res.MemOps != w.MemOps ||
							res.Mispredicts != w.Mispred || res.RetInt != w.RetInt ||
							res.StallData != w.StallData || res.StallMem != w.StallMem ||
							res.StallConn != w.StallConn || res.StallBranch != w.StallBranch {
							t.Errorf("observer perturbed the simulation:\n got cycles=%d instrs=%d\nwant cycles=%d instrs=%d (full golden %+v)",
								res.Cycles, res.Instrs, w.Cycles, w.Instrs, w)
						}
						if (res.Prof != nil) != o.profile {
							t.Fatalf("run carries per-PC attribution %v, want %v", res.Prof != nil, o.profile)
						}
						if !o.profile {
							return
						}
						p, err := prof.New(ex.Image, res)
						if err != nil {
							t.Fatal(err)
						}
						if err := p.CrossCheck(); err != nil {
							t.Errorf("attribution does not sum to ledger: %v", err)
						}
					})
				}
			})
		}
	}
}

// TestProfReportRenders smoke-tests the full report path on one real
// compiled benchmark (formatting details are golden-tested on a fixture in
// internal/prof).
func TestProfReportRenders(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	arch := LedgerConfigs(bm)[0].Arch
	arch.Profile = true
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.New(ex.Image, res)
	if err != nil {
		t.Fatal(err)
	}
	var sink countingWriter
	if err := p.WriteReport(&sink, 10); err != nil {
		t.Fatal(err)
	}
	if sink == 0 {
		t.Error("report is empty")
	}
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
