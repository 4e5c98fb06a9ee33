package regconn

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"regconn/internal/bench"
	"regconn/internal/mem"
	"regconn/internal/regalloc"
)

// executableDiff names the first field in which two executables differ
// ("" when identical). Fields compare deeply; the register assignment is
// matched by function name, since its map is keyed by each build's own
// *ir.Func pointers.
func executableDiff(a, b *Executable) string {
	byName := func(e *Executable) map[string]*regalloc.Assignment {
		m := map[string]*regalloc.Assignment{}
		for f, asg := range e.Alloc.ByFunc {
			m[f.Name] = asg
		}
		return m
	}
	if !reflect.DeepEqual(byName(a), byName(b)) {
		return "Alloc.ByFunc"
	}
	x, y := *a, *b
	pa, pb := *x.Alloc, *y.Alloc
	pa.ByFunc, pb.ByFunc = nil, nil
	x.Alloc, y.Alloc = &pa, &pb
	if reflect.DeepEqual(x, y) { // unexported fields too: the backend, the machine totals
		return ""
	}
	vx, vy := reflect.ValueOf(x), reflect.ValueOf(y)
	for i := 0; i < vx.NumField(); i++ {
		if f := vx.Type().Field(i); f.IsExported() &&
			!reflect.DeepEqual(vx.Field(i).Interface(), vy.Field(i).Interface()) {
			return f.Name
		}
	}
	return "unexported fields"
}

// TestSharedFrontMatchesBuild builds every fuzz-matrix architecture twice:
// once through Build, once through Backend over a Front compiled once per
// front key and shared by every architecture with that key (what the
// sweep runner's front cache does). The executables must be identical.
func TestSharedFrontMatchesBuild(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		p := genProgram(seed)
		fronts := map[FrontKey]*Front{}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for ci, arch := range fuzzArchs(rng) {
			want, err := Build(p, arch)
			if err != nil {
				t.Fatalf("seed %d config %d: build: %v", seed, ci, err)
			}
			f := fronts[arch.FrontKey()]
			if f == nil {
				if f, err = Frontend(p, arch); err != nil {
					t.Fatalf("seed %d config %d: frontend: %v", seed, ci, err)
				}
				fronts[arch.FrontKey()] = f
			}
			got, err := Backend(f, arch)
			if err != nil {
				t.Fatalf("seed %d config %d: backend: %v", seed, ci, err)
			}
			if d := executableDiff(want, got); d != "" {
				t.Fatalf("seed %d config %d (%+v): shared-front executable differs in %s", seed, ci, arch, d)
			}
		}
	}
}

// TestBackendRejectsForeignFront pins that a front is only ever compiled
// for architectures with its own key: an ILP-transformed front must not
// silently become a scalar build.
func TestBackendRejectsForeignFront(t *testing.T) {
	arch := Arch{Issue: 4, Verify: true}
	f, err := Frontend(buildLoopSum(), arch)
	if err != nil {
		t.Fatal(err)
	}
	arch.ScalarOnly = true
	if _, err := Backend(f, arch); err == nil || !strings.Contains(err.Error(), "front compiled for") {
		t.Fatalf("Backend on a foreign front: err = %v", err)
	}
}

// TestFrontKeyClassifiesEveryArchField walks Arch by reflection. Every
// field must be classified: a front field must move the front key, and
// changing a backend field must leave both the key and the compiled Front
// untouched. A new Arch field fails here until it is classified — and if
// Frontend starts reading a backend field, the front comparison fails.
func TestFrontKeyClassifiesEveryArchField(t *testing.T) {
	front := map[string]func(*Arch){
		"Issue":              func(a *Arch) { a.Issue = 8 },
		"ScalarOnly":         func(a *Arch) { a.ScalarOnly = true },
		"ExpandAccumulators": func(a *Arch) { a.ExpandAccumulators = true },
	}
	back := map[string]func(*Arch){
		"MemChannels":      func(a *Arch) { a.MemChannels = 4 },
		"LoadLatency":      func(a *Arch) { a.LoadLatency = 4 },
		"IntCore":          func(a *Arch) { a.IntCore = 8 },
		"FPCore":           func(a *Arch) { a.FPCore = 16 },
		"Mode":             func(a *Arch) { a.Mode = WithoutRC },
		"Model":            func(a *Arch) { a.Model = ModelNoReset },
		"Backend":          func(a *Arch) { a.Backend = "chain" },
		"ReadPorts":        func(a *Arch) { a.ReadPorts = 2 },
		"ConnectLatency":   func(a *Arch) { a.ConnectLatency = 1 },
		"ExtraDecodeStage": func(a *Arch) { a.ExtraDecodeStage = true },
		"CombineConnects":  func(a *Arch) { a.CombineConnects = true },
		"Windows":          func(a *Arch) { a.Windows = WindowFirstFree },
		"NoSchedule":       func(a *Arch) { a.NoSchedule = true },
		"Verify":           func(a *Arch) { a.Verify = true },
		"Trap":             func(a *Arch) { a.Trap = TrapConfig{Interval: 1000, HandlerCycles: 30} },
		"Profile":          func(a *Arch) { a.Profile = true },
		"MemSize":          func(a *Arch) { a.MemSize = 1 << 20 },
	}
	bm, err := bench.ByName("nasa7") // loops with reductions: unrolling and expansion both act
	if err != nil {
		t.Fatal(err)
	}
	base := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC}
	want, err := Frontend(bm.Build(), base)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Arch{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		a := base
		if set, ok := front[name]; ok {
			set(&a)
			if a.FrontKey() == base.FrontKey() {
				t.Errorf("front field %s does not move the front key", name)
			}
			continue
		}
		set, ok := back[name]
		if !ok {
			t.Errorf("Arch.%s is unclassified: add it to the front or backend fields", name)
			continue
		}
		set(&a)
		if reflect.DeepEqual(a, base) {
			t.Errorf("perturbing %s left the Arch unchanged", name)
		}
		if a.FrontKey() != base.FrontKey() {
			t.Errorf("backend field %s moves the front key", name)
			continue
		}
		got, err := Frontend(bm.Build(), a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("backend field %s changes the compiled front", name)
		}
	}
	if len(front)+len(back) != typ.NumField() {
		t.Errorf("%d classified fields, Arch has %d", len(front)+len(back), typ.NumField())
	}
}

// TestOracleRejectsTamperedResults drives checkOracle's failure paths
// through both verify entry points: a front whose recorded return value
// or data word disagrees with the simulation must fail the run, naming
// the exact address of the first differing word.
func TestOracleRejectsTamperedResults(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Build(bm.Build(), Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
		Mode: WithRC, CombineConnects: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ex.Front.Data)
	if n < 3 {
		t.Fatalf("cmp has %d data words", n)
	}
	tamper := func(edit func(*Front)) *Executable {
		f := *ex.Front
		f.Data = slices.Clone(f.Data)
		edit(&f)
		bad := *ex
		bad.Front = &f
		return &bad
	}
	wordAt := func(i int) string { return fmt.Sprintf("memory mismatch at %#x:", mem.GlobalBase+8*i) }
	cases := []struct {
		name string
		ex   *Executable
		want string
	}{
		{"return value", tamper(func(f *Front) { f.Ret++ }),
			fmt.Sprintf("result mismatch: machine %d, interpreter %d", ex.Front.Ret, ex.Front.Ret+1)},
		{"first data word", tamper(func(f *Front) { f.Data[0] ^= 1 }), wordAt(0)},
		{"middle data word", tamper(func(f *Front) { f.Data[n/2] += 7 }), wordAt(n / 2)},
		{"last data word", tamper(func(f *Front) { f.Data[n-1]-- }), wordAt(n - 1)},
		{"two data words", tamper(func(f *Front) { f.Data[n-1]--; f.Data[1]++ }), wordAt(1)},
	}
	arena := NewArena()
	verifiers := map[string]func(*Executable) error{
		"Executable.VerifyContext": func(e *Executable) error {
			_, err := e.VerifyContext(context.Background())
			return err
		},
		"Arena.VerifyContext": func(e *Executable) error {
			_, err := arena.VerifyContext(context.Background(), e)
			return err
		},
	}
	for vname, verify := range verifiers {
		if err := verify(ex); err != nil {
			t.Fatalf("%s: untampered executable: %v", vname, err)
		}
		for _, c := range cases {
			err := verify(c.ex)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, tampered %s: err = %v, want it to contain %q", vname, c.name, err, c.want)
			}
		}
	}
}

// TestBuildAllocationPin bounds what one Build allocates for each paper
// benchmark at the center configuration. The front end's interpreter
// runs use an image sized to the data section, and the executable keeps
// only the data words as its oracle, so a build allocates a few MiB; a
// 16 MiB interpreter image per profiling run (two per build) would put
// every benchmark past the bound.
func TestBuildAllocationPin(t *testing.T) {
	const bound = 8 << 20
	for _, bm := range bench.All() {
		arch := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 64,
			Mode: WithRC, CombineConnects: true, Verify: true}
		if bm.FP {
			arch.IntCore, arch.FPCore = 64, 32
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Build(bm.Build(), arch)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
			t.Errorf("%s: Build allocated %.1f MiB, bound %d MiB", bm.Name, float64(got)/(1<<20), bound>>20)
		}
	}
}
