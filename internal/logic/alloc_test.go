package logic

import "testing"

// TestAllocsHotpath pins the //leo:hotpath contract of the SWAR
// kernel: settle, ramRead, decode, Step, BusEqMask and WriteRAMLane
// run once per simulated clock cycle across all 64 lanes and must
// never touch the heap. The circuit has every structure the kernel
// handles: flip-flop groups (two registers sharing an enable, a third
// loading on the inverted enable and resetting on an input), gates
// that Compile folds (NOTs, a constant input, a duplicate gate), and a
// RAM written from a register.
func TestAllocsHotpath(t *testing.T) {
	c := New()
	addr := c.InputBus("addr", 4)
	din := c.InputBus("din", 8)
	we, en, rst := c.Input("we"), c.Input("en"), c.Input("rst")
	q := c.RegisterBus(c.NotBus(din), en, Const0)
	dout := c.RAM("m", 16, addr, q, c.node(kAnd, we, Const1, 0))
	r := c.RegisterBus(c.XorBus(dout, c.NotBus(q)), en, Const0)
	x := c.RegisterBus(c.MuxBus(c.Not(en), r, c.NotBus(dout)), c.Not(en), rst)
	dup := c.node(kAnd, c.fa[r[0]], c.fb[r[0]], 0)
	out := append(Bus{dup}, x...)
	s := c.MustCompile()
	if len(s.groups) != 2 {
		t.Fatalf("%d flip-flop groups, want 2", len(s.groups))
	}
	s.Set(we, true)
	var sink uint64
	n := testing.AllocsPerRun(500, func() {
		s.SetBus(addr, sink&15)
		s.SetBus(din, sink&0xFF)
		s.Set(en, sink&1 != 0)
		s.Set(rst, sink&6 == 6)
		s.Step()
		sink += s.GetBus(dout) + s.GetBus(out)
		sink += s.BusEqMask(out, sink&0x1FF)
		s.WriteRAMLane("m", int(sink&15), int(sink&63), sink)
	})
	if n != 0 {
		t.Fatalf("sim hot path allocates %v times per run, want 0", n)
	}
	_ = sink
}
