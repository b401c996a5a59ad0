package logic

import "testing"

// counterWithRAM builds a small sequential circuit exercising every
// kind of state: a free-running counter (DFFs), a RAM written from it,
// and primary inputs. The write enable is an input so tests can vary
// the input state across the snapshot.
func counterWithRAM() (*Circuit, Bus, Signal, Bus) {
	c := New()
	cnt := c.Counter(4, Const1, Const0)
	we := c.Input("we")
	din := c.InputBus("din", 4)
	c.RAM("m", 16, cnt, din, we)
	return c, cnt, we, din
}

func TestSimStateRoundTrip(t *testing.T) {
	build := func() *Sim {
		c, _, _, _ := counterWithRAM()
		return c.MustCompile()
	}
	a := build()
	a.SetByName("we", true)
	for i := 0; i < 7; i++ {
		a.SetByName("din[0]", i&1 != 0)
		a.SetByName("din[2]", i&2 != 0)
		a.Step()
	}
	st := a.SnapshotState()

	b := build()
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if b.Cycles() != a.Cycles() {
		t.Fatalf("cycles %d, want %d", b.Cycles(), a.Cycles())
	}
	// Continue both and compare all sequential state word for word.
	for i := 0; i < 9; i++ {
		a.Step()
		b.Step()
	}
	for j := range a.dffs {
		if a.val[a.dffs[j]] != b.val[b.dffs[j]] {
			t.Fatalf("DFF %d diverged", j)
		}
	}
	for ri := range a.rams {
		for k := range a.rams[ri].mem {
			if a.rams[ri].mem[k] != b.rams[ri].mem[k] {
				t.Fatalf("RAM %d bit vector %d diverged", ri, k)
			}
		}
	}
}

func TestSimStateSnapshotIsDeepCopy(t *testing.T) {
	c, _, _, _ := counterWithRAM()
	s := c.MustCompile()
	s.SetByName("we", true)
	s.StepN(5)
	st := s.SnapshotState()
	s.StepN(5)
	if st.Cycles != 5 {
		t.Fatalf("snapshot cycles %d mutated by later steps", st.Cycles)
	}
	if err := s.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if s.Cycles() != 5 {
		t.Fatalf("restore left cycles at %d", s.Cycles())
	}
}

func TestSimStateRestoreRejectsMismatch(t *testing.T) {
	c, _, _, _ := counterWithRAM()
	s := c.MustCompile()
	st := s.SnapshotState()

	other := New()
	other.Counter(3, Const1, Const0)
	o := other.MustCompile()
	if err := o.RestoreState(st); err == nil {
		t.Fatal("mismatched snapshot accepted")
	}
	// The failed restore must not have touched the target.
	if o.Cycles() != 0 {
		t.Fatalf("failed restore advanced cycles to %d", o.Cycles())
	}

	bad := st
	bad.DFFs = st.DFFs[:len(st.DFFs)-1]
	if err := s.RestoreState(bad); err == nil {
		t.Fatal("short DFF vector accepted")
	}
	bad = st
	bad.RAMs = [][]uint64{{1}}
	if err := s.RestoreState(bad); err == nil {
		t.Fatal("short RAM vector accepted")
	}
}
