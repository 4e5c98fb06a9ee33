package mem

import (
	"testing"
	"testing/quick"

	"regconn/internal/ir"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1 << 16)
	m.StoreI(8, 42)
	if m.LoadI(8) != 42 {
		t.Fatal("int round trip failed")
	}
	m.StoreF(16, 3.25)
	if m.LoadF(16) != 3.25 {
		t.Fatal("float round trip failed")
	}
	if m.Size() != 1<<16 || m.StackTop() != 1<<16 {
		t.Fatal("size/stacktop wrong")
	}
}

func TestFaults(t *testing.T) {
	m := New(1 << 12)
	for _, addr := range []int64{-8, 1 << 12, 12 /* unaligned */} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("addr %d: expected fault", addr)
				} else if _, ok := r.(*Fault); !ok {
					t.Errorf("addr %d: panic type %T", addr, r)
				}
			}()
			m.LoadI(addr)
		}()
	}
	f := &Fault{Addr: 12, Reason: "unaligned access"}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestLayoutAndImage(t *testing.T) {
	p := ir.NewProgram()
	a := p.AddGlobal("a", 16)
	a.InitI = []int64{5, 6}
	b := p.AddGlobal("b", 8)
	b.InitF = []float64{2.5}
	l := ComputeLayout(p)
	if l["a"] != GlobalBase || l["b"] != GlobalBase+16 {
		t.Fatalf("layout = %v", l)
	}
	if l.DataEnd(p) != GlobalBase+24 {
		t.Fatalf("data end = %d", l.DataEnd(p))
	}
	m := InitImage(p, l, 1<<16)
	if m.LoadI(l["a"]) != 5 || m.LoadI(l["a"]+8) != 6 {
		t.Error("int init wrong")
	}
	if m.LoadF(l["b"]) != 2.5 {
		t.Error("float init wrong")
	}
	if d := m.Data(l.DataEnd(p)); len(d) != 3 || d[0] != 5 || d[1] != 6 || d[2] != m.LoadI(l["b"]) {
		t.Errorf("data words = %v", d)
	}
	if d := m.Data(GlobalBase); len(d) != 0 {
		t.Errorf("empty data section: %v", d)
	}
}

func TestDataImageSize(t *testing.T) {
	for end, want := range map[int64]int64{
		GlobalBase:    1 << 16,
		1<<16 - 8:     1 << 16,
		1 << 16:       1 << 16,
		1<<16 + 8:     2 << 16,
		5<<16 + 1<<12: 6 << 16,
		DefaultSize:   DefaultSize,
	} {
		if got := DataImageSize(end); got != want {
			t.Errorf("DataImageSize(%#x) = %#x, want %#x", end, got, want)
		}
	}
}

func TestQuickMemoryIsLastWriteWins(t *testing.T) {
	f := func(writes []struct {
		Slot uint8
		Val  int64
	}) bool {
		m := New(1 << 12)
		last := map[int64]int64{}
		for _, w := range writes {
			addr := int64(w.Slot&63) * 8
			m.StoreI(addr, w.Val)
			last[addr] = w.Val
		}
		for addr, v := range last {
			if m.LoadI(addr) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
