package regconn

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"regconn/internal/machine"
)

func TestDefaultMemChannels(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 4: 2, 8: 4}
	for issue, want := range cases {
		if got := DefaultMemChannels(issue); got != want {
			t.Errorf("DefaultMemChannels(%d) = %d, want %d", issue, got, want)
		}
	}
}

func TestArchNormalize(t *testing.T) {
	a := Arch{Issue: 4}.normalize()
	if a.MemChannels != 2 || a.LoadLatency != 2 || a.IntCore != 64 || a.FPCore != 64 {
		t.Errorf("normalize defaults wrong: %+v", a)
	}
	if !a.Model.Valid() {
		t.Error("model not defaulted")
	}
	b := Arch{Issue: 8, MemChannels: 3, LoadLatency: 4, IntCore: 16, FPCore: 32}.normalize()
	if b.MemChannels != 3 || b.LoadLatency != 4 || b.IntCore != 16 {
		t.Errorf("normalize clobbered explicit values: %+v", b)
	}
}

func TestBaselineConfiguration(t *testing.T) {
	b := Baseline()
	if b.Issue != 1 || b.Mode != Unlimited || !b.ScalarOnly {
		t.Errorf("baseline = %+v", b)
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[RegMode]string{
		Unlimited: "unlimited", WithoutRC: "without-RC", WithRC: "with-RC",
	} {
		if m.String() != want {
			t.Errorf("%d = %q", m, m.String())
		}
	}
}

func TestBuildRejectsInvalidIR(t *testing.T) {
	p := NewProgram()
	b := NewFunc(p, "main", 0, 0)
	_ = b // no terminator: invalid
	if _, err := Build(p, Arch{Issue: 1}); err == nil {
		t.Fatal("expected verify error")
	}
}

func TestRunWithTrace(t *testing.T) {
	ex, err := Build(buildLoopSum(), Arch{Issue: 4, IntCore: 16, FPCore: 16, Mode: WithoutRC, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := ex.RunObserved(context.Background(), machine.NewTextTrace(&buf, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.RetInt != 4950 {
		t.Errorf("traced run result = %d", res.RetInt)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 || len(lines) > 10 {
		t.Errorf("trace lines = %d, want 1..10", len(lines))
	}
	if !strings.Contains(buf.String(), "call main") {
		t.Errorf("trace missing startup:\n%s", buf.String())
	}
}

func TestPublicAPISurface(t *testing.T) {
	// The aliases must expose a complete build-and-run path.
	if len(Benchmarks()) != 12 || len(IntegerBenchmarks()) != 9 || len(FPBenchmarks()) != 3 {
		t.Fatal("benchmark suite accessors wrong")
	}
	if _, err := BenchmarkByName("grep"); err != nil {
		t.Fatal(err)
	}
	tab := NewMapTable(ModelDefault, 8, 256)
	tab.ConnectUse(3, 100)
	if tab.ReadPhys(3) != 100 {
		t.Fatal("MapTable alias broken")
	}
	ctx := tab.SaveContext()
	tab.Reset()
	tab.RestoreContext(ctx)
	if tab.ReadPhys(3) != 100 {
		t.Fatal("MapContext alias broken")
	}
	p := NewProgram()
	b := NewFunc(p, "main", 0, 0)
	b.Ret(b.Const(9))
	if err := VerifyIR(p); err != nil {
		t.Fatal(err)
	}
	ex, err := Build(p, Arch{Issue: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Verify()
	if err != nil || res.RetInt != 9 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestTrapThroughFacade(t *testing.T) {
	arch := Arch{Issue: 4, IntCore: 16, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true}
	arch.Trap = TrapConfig{Interval: 50, ContextSwitch: true, PSWFlag: true}
	ex, err := Build(buildLoopSum(), arch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps == 0 {
		t.Error("no context switches fired through the facade")
	}
}

func TestRunProcesses(t *testing.T) {
	arch := Arch{Issue: 4, IntCore: 8, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true}
	var exes []*Executable
	for i := 0; i < 2; i++ {
		ex, err := Build(buildPressureInt(), arch)
		if err != nil {
			t.Fatal(err)
		}
		exes = append(exes, ex)
	}
	res, err := RunProcesses(exes, 200, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		if r.RetInt != 1395 {
			t.Errorf("process %d = %d, want 1395", i, r.RetInt)
		}
	}
	if res.Switches == 0 {
		t.Error("no context switches")
	}
	// Mixed architectures are rejected.
	other, err := Build(buildLoopSum(), Arch{Issue: 8, IntCore: 16, FPCore: 16, Mode: WithRC, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProcesses([]*Executable{exes[0], other}, 200, FullSave); err == nil {
		t.Error("expected architecture-mismatch error")
	}
	if _, err := RunProcesses(nil, 200, FullSave); err == nil {
		t.Error("expected no-processes error")
	}
}

func TestWindowPolicyThroughFacade(t *testing.T) {
	for _, pol := range []WindowPolicy{WindowLRU, WindowRoundRobin, WindowFirstFree} {
		ex, err := Build(buildPressureInt(), Arch{Issue: 4, IntCore: 8, FPCore: 16,
			Mode: WithRC, CombineConnects: true, Windows: pol, Verify: true})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if _, err := ex.Verify(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}
