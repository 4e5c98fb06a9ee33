package machine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"regconn/internal/isa"
	"regconn/internal/obs"
)

// rcProg keeps a value in extended register rp100 across a long spin, then
// returns it — correct only if the OS preserves extended state across
// context switches.
func rcProg(val int64, spin int64) *Image {
	return asm(
		isa.Instr{Op: isa.CONDEF, CIdx: [2]uint16{3}, CPhys: [2]uint16{100}, CClass: isa.ClassInt},
		movi(3, val), // into rp100; model 3 re-points the read map
		movi(4, 0),
		addi(4, 4, 1), // pc 3
		isa.Instr{Op: isa.BLT, A: isa.IntReg(4), Imm: spin, UseImm: true, Target: 3, Pred: true},
		add(2, 3, 0), // read back through the diverted map entry
		halt(),
	)
}

// coreProg uses only core registers.
func coreProg(spin int64) *Image {
	return asm(
		movi(2, 0),
		movi(4, 0),
		addi(2, 2, 2), // pc 2
		addi(4, 4, 1),
		isa.Instr{Op: isa.BLT, A: isa.IntReg(4), Imm: spin, UseImm: true, Target: 2, Pred: true},
		halt(),
	)
}

func multiCfg() Config {
	c := DefaultConfig()
	c.IntCore, c.IntTotal = 16, 256
	c.FPCore, c.FPTotal = 16, 256
	return c
}

// TestMultiprogrammedFullSave: two RC processes that both use rp100 with
// different values, plus a core-only process; under the full save mode
// everyone computes correctly despite sharing one register file.
func TestMultiprogrammedFullSave(t *testing.T) {
	imgs := []*Image{rcProg(111, 2000), rcProg(222, 2000), coreProg(2000)}
	res, err := RunMultiprogrammed(imgs, multiCfg(), 300, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches < 3 {
		t.Fatalf("only %d switches", res.Switches)
	}
	if got := res.Results[0].RetInt; got != 111 {
		t.Errorf("process 0 = %d, want 111", got)
	}
	if got := res.Results[1].RetInt; got != 222 {
		t.Errorf("process 1 = %d, want 222", got)
	}
	if got := res.Results[2].RetInt; got != 4000 {
		t.Errorf("process 2 = %d, want 4000", got)
	}
	if res.SwitchCycles == 0 || res.Cycles <= 2000 {
		t.Errorf("accounting wrong: %+v", res)
	}
}

// TestMultiprogrammedCoreOnlyCorruptsRC demonstrates §4.2's hazard: a
// pre-RC operating system that saves only core registers corrupts
// RC-extended processes (they share rp100) while core-only processes
// still work.
func TestMultiprogrammedCoreOnlyCorruptsRC(t *testing.T) {
	imgs := []*Image{rcProg(111, 2000), rcProg(222, 2000), coreProg(2000)}
	res, err := RunMultiprogrammed(imgs, multiCfg(), 300, CoreOnlySave)
	if err != nil {
		t.Fatal(err)
	}
	// The core-only process is unaffected.
	if got := res.Results[2].RetInt; got != 4000 {
		t.Errorf("core-only process = %d, want 4000", got)
	}
	// At least one RC process observes the other's rp100 value: process
	// 0 wrote 111 into rp100 early, then process 1 overwrote it with 222
	// before process 0 read it back.
	if res.Results[0].RetInt == 111 && res.Results[1].RetInt == 222 {
		t.Error("core-only switching unexpectedly preserved extended state " +
			"(the §4.2 hazard should be observable)")
	}
}

// TestMultiprogrammedCoreOnlySharedPhys pins down the mechanism of the
// §4.2 corruption: without extended-state switching, both RC processes
// literally share physical register 100, so both read back whatever value
// the later writer left — their results collide on one of the two written
// values. The identical workload under FullSave stays correct.
func TestMultiprogrammedCoreOnlySharedPhys(t *testing.T) {
	res, err := RunMultiprogrammed([]*Image{rcProg(111, 2000), rcProg(222, 2000)},
		multiCfg(), 300, CoreOnlySave)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Results[0].RetInt, res.Results[1].RetInt
	if a != b {
		t.Errorf("core-only: processes read different values %d / %d; "+
			"they share one physical register and must collide", a, b)
	}
	if a != 111 && a != 222 {
		t.Errorf("core-only: shared value %d is neither written value", a)
	}
	full, err := RunMultiprogrammed([]*Image{rcProg(111, 2000), rcProg(222, 2000)},
		multiCfg(), 300, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	if full.Results[0].RetInt != 111 || full.Results[1].RetInt != 222 {
		t.Errorf("full save: got %d/%d, want 111/222",
			full.Results[0].RetInt, full.Results[1].RetInt)
	}
}

// TestMultiprogrammedFullSaveCostsMore: the full save moves more state, so
// its per-switch overhead exceeds the core-only save's.
func TestMultiprogrammedFullSaveCostsMore(t *testing.T) {
	imgs := []*Image{coreProg(1500), coreProg(1500)}
	full, err := RunMultiprogrammed(imgs, multiCfg(), 300, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	imgs2 := []*Image{coreProg(1500), coreProg(1500)}
	coreOnly, err := RunMultiprogrammed(imgs2, multiCfg(), 300, CoreOnlySave)
	if err != nil {
		t.Fatal(err)
	}
	perFull := float64(full.SwitchCycles) / float64(full.Switches)
	perCore := float64(coreOnly.SwitchCycles) / float64(coreOnly.Switches)
	if perFull <= perCore {
		t.Errorf("full save %.1f cy/switch should exceed core-only %.1f", perFull, perCore)
	}
}

func TestMultiprogrammedValidation(t *testing.T) {
	if _, err := RunMultiprogrammed(nil, multiCfg(), 100, FullSave); err == nil {
		t.Error("expected error for no processes")
	}
	if _, err := RunMultiprogrammed([]*Image{coreProg(10)}, multiCfg(), 0, FullSave); err == nil {
		t.Error("expected error for zero quantum")
	}
}

// TestMultiprogrammedTraceJSONDeterministic renders one three-process
// event ring many times: the process and thread metadata must come out in
// pid order every time, so the export is byte-identical across renders.
func TestMultiprogrammedTraceJSONDeterministic(t *testing.T) {
	imgs := []*Image{rcProg(111, 200), rcProg(222, 200), coreProg(200)}
	cfg := multiCfg()
	ring := NewEventRing(0)
	cfg.Observer = ring
	if _, err := RunMultiprogrammed(imgs, cfg, 100, FullSave); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := ring.WriteTraceJSON(&first, imgs...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := ring.WriteTraceJSON(&buf, imgs...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs from the first", i+1)
		}
	}
	var doc obs.TraceFile
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, te := range doc.TraceEvents {
		if te.Name == "process_name" {
			pids = append(pids, te.Pid)
		}
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(pids, want) {
		t.Errorf("process metadata in pid order %v, want %v", pids, want)
	}
}
