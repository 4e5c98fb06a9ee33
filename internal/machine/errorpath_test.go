package machine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"regconn/internal/codegen"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/mem"
)

// loopImg counts r3 down from n: a program whose runtime scales with n, for
// cancellation and long-trace tests.
func loopImg(n int64) *Image {
	return asm(
		movi(3, n),
		movi(4, 0),
		addi(3, 3, -1),
		isa.Instr{Op: isa.BNE, A: isa.IntReg(3), B: isa.IntReg(4), Target: 2},
		halt(),
	)
}

// wildStoreImg stores to addr (pc=1 is the faulting instruction).
func wildStoreImg(addr int64) *Image {
	return asm(
		movi(2, addr),
		isa.Instr{Op: isa.ST, A: isa.IntReg(2), B: isa.IntReg(2), Imm: 0},
		halt(),
	)
}

func TestWildStoreReturnsRuntimeError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		addr   int64
		reason string
	}{
		{"out-of-range", mem.DefaultSize + 8, "out of range"},
		{"negative", -16, "out of range"},
		{"unaligned", 1001, "unaligned access"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(wildStoreImg(tc.addr), cfg1())
			if res != nil {
				t.Fatalf("got result %+v alongside fault", res)
			}
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *RuntimeError", err, err)
			}
			if re.Func != "t" || re.PC != 1 {
				t.Errorf("fault located at %s pc=%d, want t pc=1", re.Func, re.PC)
			}
			var f *mem.Fault
			if !errors.As(err, &f) {
				t.Fatalf("RuntimeError does not wrap *mem.Fault: %v", err)
			}
			if f.Reason != tc.reason || f.Addr != tc.addr {
				t.Errorf("fault = %v, want addr %#x %s", f, tc.addr, tc.reason)
			}
		})
	}
}

func TestInitFaultReturnsRuntimeError(t *testing.T) {
	// A global whose initializer lands beyond MemSize makes image setup
	// itself fault, before any instruction issues.
	p := ir.NewProgram()
	g := p.AddGlobal("big", 64)
	g.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	mp := &codegen.MProg{Entry: "t", IR: p}
	mp.Funcs = append(mp.Funcs, &codegen.MFunc{Name: "t", Code: []isa.Instr{halt()}, Ann: make([]codegen.Annot, 1)})
	img, err := Load(mp)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg1()
	c.MemSize = mem.GlobalBase // global data starts exactly at the end: first store faults
	res, err := Run(img, c)
	if res != nil || err == nil {
		t.Fatalf("Run = %v, %v; want nil result and an error", res, err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("init fault surfaced as %T (%v), want *RuntimeError", err, err)
	}
	if re.Func != "(init)" || re.PC != -1 {
		t.Errorf("init fault located at %q pc=%d, want (init) pc=-1", re.Func, re.PC)
	}
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Fatalf("init RuntimeError does not wrap *mem.Fault: %v", err)
	}
}

func TestRunContextCancelStopsEarly(t *testing.T) {
	const n = 100_000
	full, err := Run(loopImg(n), cfg1())
	if err != nil {
		t.Fatal(err)
	}
	if full.Cycles < 2*n {
		t.Fatalf("loop program too short to observe cancellation: %d cycles", full.Cycles)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, loopImg(n), cfg1())
	if res != nil || err == nil {
		t.Fatalf("RunContext = %v, %v; want nil result and an error", res, err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation error = %v; want to match ErrCanceled and context.Canceled", err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("cancellation surfaced as %T, want *RuntimeError", err)
	}
	if re.Cycle > 2*cancelCheckInterval {
		t.Errorf("run canceled at cycle %d, want within %d (poll stride %d)",
			re.Cycle, 2*cancelCheckInterval, cancelCheckInterval)
	}
	if full.Cycles <= re.Cycle {
		t.Errorf("canceled run (%d cycles) did not stop before the full run (%d)", re.Cycle, full.Cycles)
	}
}

func TestRunContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, err := RunContext(ctx, loopImg(100_000), cfg1())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want to match context.DeadlineExceeded", err)
	}
}

func TestRunMultiprogrammedContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	imgs := []*Image{loopImg(100_000), loopImg(100_000)}
	res, err := RunMultiprogrammedContext(ctx, imgs, cfg1(), 1000, FullSave)
	if res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunMultiprogrammedContext = %v, %v; want nil and ErrCanceled", res, err)
	}
}

func TestTraceTailOnFault(t *testing.T) {
	var buf bytes.Buffer
	c := cfg1()
	c.Observer = NewTextTrace(&buf, 0)
	_, err := Run(wildStoreImg(mem.DefaultSize+8), c)
	if err == nil {
		t.Fatal("wild store did not fail")
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "!!") || !strings.Contains(last, "memory fault") {
		t.Fatalf("trace tail does not show the fault:\n%s", buf.String())
	}
	if !strings.Contains(last, "1:") || !strings.Contains(last, "st") {
		t.Errorf("trace tail does not name the faulting instruction: %q", last)
	}
}

func TestTraceFileSyncedOnFault(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "trace-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := cfg1()
	c.Observer = NewTextTrace(f, 0)
	if _, err := Run(wildStoreImg(mem.DefaultSize+8), c); err == nil {
		t.Fatal("wild store did not fail")
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "memory fault") {
		t.Fatalf("file trace lost its tail:\n%s", data)
	}
}

func TestEventRingZeroValue(t *testing.T) {
	// Config.Observer = &EventRing{} must behave like a default-capacity
	// ring, not panic on the first event.
	c := cfg1()
	ring := &EventRing{}
	c.Observer = ring
	img := asm(movi(2, 1), add(3, 2, 2), halt())
	if _, err := Run(img, c); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("zero-value ring recorded no events")
	}
	if ring.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", ring.Dropped())
	}
	if evs[len(evs)-1].Kind != EvHalt {
		t.Errorf("last event kind = %d, want EvHalt", evs[len(evs)-1].Kind)
	}
}

func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 7; i++ {
		r.Observe(Event{Kind: EvIssue, Cycle: int64(i), PC: int32(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d entries, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(i + 3); e.Cycle != want {
			t.Errorf("event %d has cycle %d, want %d (oldest retained is event 3)", i, e.Cycle, want)
		}
	}
	if r.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", r.Dropped())
	}
}

func TestEventRingPartialFill(t *testing.T) {
	r := NewEventRing(8)
	for i := 0; i < 3; i++ {
		r.Observe(Event{Cycle: int64(i)})
	}
	if evs := r.Events(); len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Fatalf("partial ring Events = %v", evs)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
	if evs := NewEventRing(4).Events(); len(evs) != 0 {
		t.Errorf("empty ring Events = %v, want none", evs)
	}
}

func TestWriteTraceJSONAfterWraparound(t *testing.T) {
	// Drive a real run into a tiny ring so it wraps, then check the exported
	// Chrome trace: timestamps must be monotonic and must not predate the
	// oldest retained event.
	c := cfg1()
	ring := NewEventRing(16)
	c.Observer = ring
	img := loopImg(50)
	if _, err := Run(img, c); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() == 0 {
		t.Fatal("ring did not wrap; enlarge the loop")
	}
	oldest := ring.Events()[0].Cycle

	var buf bytes.Buffer
	if err := ring.WriteTraceJSON(&buf, img); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			Ts int64  `json:"ts"`
		} `json:"traceEvents"`
		OtherData struct {
			Dropped int64 `json:"events_dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.Dropped != ring.Dropped() {
		t.Errorf("exported dropped count %d, want %d", doc.OtherData.Dropped, ring.Dropped())
	}
	prev := int64(-1)
	for _, te := range doc.TraceEvents {
		if te.Ph == "M" {
			continue
		}
		if te.Ts < oldest {
			t.Fatalf("exported event at ts=%d predates the oldest retained event (cycle %d): overwritten slot leaked", te.Ts, oldest)
		}
		if te.Ts < prev {
			t.Fatalf("trace timestamps not monotonic: %d after %d", te.Ts, prev)
		}
		prev = te.Ts
	}
}
