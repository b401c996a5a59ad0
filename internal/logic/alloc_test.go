package logic

import "testing"

// TestAllocsHotpath pins the //leo:hotpath contract of the SWAR
// kernel: settle, ramRead, ramDecode, and Step run once per simulated
// clock cycle across all 64 lanes and must never touch the heap.
func TestAllocsHotpath(t *testing.T) {
	c := New()
	addr := c.InputBus("addr", 4)
	din := c.InputBus("din", 8)
	we := c.Input("we")
	dout := c.RAM("m", 16, addr, din, we)
	s := c.MustCompile()
	s.Set(we, true)
	var sink uint64
	n := testing.AllocsPerRun(500, func() {
		s.SetBus(addr, sink&15)
		s.SetBus(din, sink&0xFF)
		s.Step()
		sink += s.GetBus(dout)
		sink += s.BusEqMask(dout, sink&0xFF)
		s.WriteRAMLane("m", int(sink&15), int(sink&63), sink)
	})
	if n != 0 {
		t.Fatalf("sim hot path allocates %v times per run, want 0", n)
	}
	_ = sink
}
