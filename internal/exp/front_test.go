package exp

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/ir"
	"regconn/internal/obs"
	"regconn/internal/regalloc"
)

// sameExecutable fails the test unless the two executables are identical:
// every field deeply (unexported ones too), with the register assignment
// matched by function name — its map is keyed by each build's own
// *ir.Func pointers.
func sameExecutable(t *testing.T, what string, a, b *regconn.Executable) {
	t.Helper()
	byName := func(e *regconn.Executable) map[string]*regalloc.Assignment {
		m := map[string]*regalloc.Assignment{}
		for f, asg := range e.Alloc.ByFunc {
			m[f.Name] = asg
		}
		return m
	}
	x, y := *a, *b
	pa, pb := *x.Alloc, *y.Alloc
	pa.ByFunc, pb.ByFunc = nil, nil
	x.Alloc, y.Alloc = &pa, &pb
	if !reflect.DeepEqual(byName(a), byName(b)) || !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: executables differ", what)
	}
}

// TestFrontCacheMatchesBuildOnGoldenGrid builds every golden-grid point
// (plus each benchmark's scalar baseline) with and without the front
// cache: the executables must be identical, and each benchmark compiles
// one front per distinct front key.
func TestFrontCacheMatchesBuildOnGoldenGrid(t *testing.T) {
	var fc FrontCache
	ctx := context.Background()
	for _, bm := range bench.All() {
		archs := []regconn.Arch{regconn.Baseline()}
		for _, lc := range LedgerConfigs(bm) {
			archs = append(archs, lc.Arch)
		}
		seen := map[regconn.FrontKey]bool{}
		for _, arch := range archs {
			want, err := regconn.Build(bm.Build(), arch)
			if err != nil {
				t.Fatalf("%s %+v: %v", bm.Name, arch, err)
			}
			got, src, err := fc.Build(ctx, bm, arch)
			if err != nil {
				t.Fatalf("%s %+v: cached build: %v", bm.Name, arch, err)
			}
			wantSrc := frontHit
			if k := arch.FrontKey(); !seen[k] {
				seen[k], wantSrc = true, frontMiss
			}
			if src != wantSrc {
				t.Errorf("%s %+v: front %s, want %s", bm.Name, arch, src, wantSrc)
			}
			sameExecutable(t, bm.Name, want, got)
		}
	}
}

// TestFrontCacheConcurrentBuilds runs many concurrent builds of one
// benchmark whose architectures share a front key (run it under -race):
// exactly one compiles the front, every other one hits or joins it, and
// the concurrent Backend calls over the one shared Front produce the
// executables an uncached Build does.
func TestFrontCacheConcurrentBuilds(t *testing.T) {
	bm, err := bench.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	lcs := LedgerConfigs(bm)
	want := make([]*regconn.Executable, len(lcs))
	for i, lc := range lcs {
		if want[i], err = regconn.Build(bm.Build(), lc.Arch); err != nil {
			t.Fatal(err)
		}
	}
	var fc FrontCache
	const perArch = 3
	n := perArch * len(lcs)
	got := make([]*regconn.Executable, n)
	srcs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], srcs[i], errs[i] = fc.Build(context.Background(), bm, lcs[i%len(lcs)].Arch)
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if srcs[i] == frontMiss {
			misses++
		}
		sameExecutable(t, lcs[i%len(lcs)].Name, want[i%len(lcs)], got[i])
	}
	if misses != 1 || fc.Len() != 1 {
		t.Errorf("%d misses and %d cached fronts for one key, want 1 and 1 (sources %v)", misses, fc.Len(), srcs)
	}
}

// TestFrontCacheBound fills the cache past its bound: it keeps the most
// recently used frontCacheSize fronts and compiles an evicted one again.
func TestFrontCacheBound(t *testing.T) {
	tiny := func(name string) bench.Benchmark {
		return bench.Benchmark{Name: name, Build: func() *ir.Program {
			p := ir.NewProgram()
			b := ir.NewFunc(p, "main", 0, 0)
			b.Ret(b.Const(7))
			return p
		}}
	}
	var fc FrontCache
	arch := regconn.Arch{Issue: 1}
	build := func(name string) string {
		_, src, err := fc.Build(context.Background(), tiny(name), arch)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for i := 0; i <= frontCacheSize; i++ {
		build(string(rune('A' + i)))
	}
	if fc.Len() != frontCacheSize {
		t.Fatalf("cache holds %d fronts, bound %d", fc.Len(), frontCacheSize)
	}
	if src := build(string(rune('A' + frontCacheSize))); src != frontHit {
		t.Errorf("most recent front: %s, want hit", src)
	}
	if src := build("A"); src != frontMiss {
		t.Errorf("least recently used front: %s, want a miss after eviction", src)
	}
}

// TestRunnerBuildsShareFronts: a Runner compiles one front per benchmark
// and front key, for the memoized points and for the ablations that build
// outside the point memo alike.
func TestRunnerBuildsShareFronts(t *testing.T) {
	r := NewQuickRunner()
	if _, err := r.AblationPressure(); err != nil {
		t.Fatal(err)
	}
	// Scalar plus 2/4/8-issue ILP: four keys per benchmark.
	if got, want := r.fronts.Len(), 4*len(r.Benchmarks); got != want {
		t.Fatalf("after pressure: %d fronts, want %d", got, want)
	}
	if _, err := r.Figure7(); err != nil { // issue 1/2/4/8 + baseline: no new key
		t.Fatal(err)
	}
	if got, want := r.fronts.Len(), 4*len(r.Benchmarks); got != want {
		t.Errorf("after fig7: %d fronts, want %d", got, want)
	}
}

// TestRunPointBuildSpanFront: the build span says where its front came
// from — a miss on the first point of a key, a hit on the next.
func TestRunPointBuildSpanFront(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	var fc FrontCache
	tr := obs.NewTrace("front-attr")
	root := tr.Root("run")
	ctx := obs.NewContext(context.Background(), root)
	for _, lc := range LedgerConfigs(bm)[:2] {
		if _, err := RunPoint(ctx, &fc, bm, lc.Arch); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	var fronts []any
	for _, s := range tr.Spans() {
		if s.Name != "build" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "front" {
				fronts = append(fronts, a.Val)
			}
		}
	}
	if !reflect.DeepEqual(fronts, []any{frontMiss, frontHit}) {
		t.Errorf("build span front attrs = %v, want [miss hit]", fronts)
	}
}
