package genome

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLayoutValidate(t *testing.T) {
	if err := PaperLayout.Validate(); err != nil {
		t.Fatalf("paper layout invalid: %v", err)
	}
	if PaperLayout.Bits() != Bits {
		t.Fatalf("paper layout bits = %d, want %d", PaperLayout.Bits(), Bits)
	}
	for _, ly := range []Layout{{0, 6}, {2, 0}, {-1, 6}} {
		if err := ly.Validate(); err == nil {
			t.Errorf("layout %+v should be invalid", ly)
		}
	}
	if got := (Layout{Steps: 4, Legs: 6}).Bits(); got != 72 {
		t.Errorf("4-step layout bits = %d, want 72", got)
	}
}

func TestExtendedRoundTripPacked(t *testing.T) {
	f := func(raw uint64) bool {
		g := Genome(raw) & Mask
		return FromGenome(g).Packed() == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendedGeneMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := Genome(rng.Uint64()) & Mask
		e := FromGenome(g)
		for s := 0; s < StepsPerGenome; s++ {
			for l := 0; l < Legs; l++ {
				if e.Gene(s, l) != g.Gene(s, Leg(l)) {
					t.Fatalf("gene (%d,%d) mismatch", s, l)
				}
			}
		}
	}
}

func TestExtendedSetGene(t *testing.T) {
	e := NewExtended(Layout{Steps: 4, Legs: 6})
	gene := LegGene{RaiseFirst: true, Forward: true, RaiseAfter: true}
	e.SetGene(3, 5, gene)
	if got := e.Gene(3, 5); got != gene {
		t.Fatalf("Gene(3,5) = %v, want %v", got, gene)
	}
	if e.Bits.OnesCount() != 3 {
		t.Fatalf("OnesCount = %d, want 3", e.Bits.OnesCount())
	}
	e.SetGene(3, 5, LegGene{})
	if e.Bits.OnesCount() != 0 {
		t.Fatalf("clearing gene left %d bits set", e.Bits.OnesCount())
	}
}

func TestExtendedPackedPanicsOnOtherLayout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Packed on non-paper layout should panic")
		}
	}()
	NewExtended(Layout{Steps: 4, Legs: 6}).Packed()
}

func TestBitStringBasics(t *testing.T) {
	b := NewBitString(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Set(0, true)
	b.Set(64, true)
	b.Set(129, true)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Set/Get mismatch")
	}
	if b.OnesCount() != 3 {
		t.Fatalf("OnesCount = %d, want 3", b.OnesCount())
	}
	b.Flip(64)
	if b.Get(64) || b.OnesCount() != 2 {
		t.Fatal("Flip failed")
	}
}

func TestBitStringOutOfRangePanics(t *testing.T) {
	b := NewBitString(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) should panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestBitStringCloneIndependence(t *testing.T) {
	a := NewBitString(70)
	a.Set(69, true)
	b := a.Clone()
	b.Set(0, true)
	if a.Get(0) {
		t.Fatal("Clone shares storage")
	}
	if !b.Get(69) {
		t.Fatal("Clone lost bits")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
	if a.Equal(b) {
		t.Fatal("Equal after divergence = true")
	}
	if a.Equal(NewBitString(71)) {
		t.Fatal("Equal across lengths = true")
	}
}

func TestBitStringFromUint64(t *testing.T) {
	b := BitStringFromUint64(0b1011, 4)
	want := []bool{true, true, false, true}
	for i, w := range want {
		if b.Get(i) != w {
			t.Errorf("bit %d = %v, want %v", i, b.Get(i), w)
		}
	}
	if b.Uint64() != 0b1011 {
		t.Errorf("Uint64 = %b", b.Uint64())
	}
	// High bits beyond n are masked off.
	if got := BitStringFromUint64(^uint64(0), 4).OnesCount(); got != 4 {
		t.Errorf("masking failed: OnesCount = %d, want 4", got)
	}
	if s := BitStringFromUint64(0b1011, 4).String(); s != "1011" {
		t.Errorf("String = %q, want 1011", s)
	}
}

func TestCrossoverBitsMatchesPacked(t *testing.T) {
	f := func(ra, rb uint64, p uint8) bool {
		a, b := Genome(ra)&Mask, Genome(rb)&Mask
		point := 1 + int(p)%(Bits-1)
		wc, wd := Crossover(a, b, point)
		ec, ed := CrossoverBits(FromGenome(a).Bits, FromGenome(b).Bits, point)
		gc := Extended{Layout: PaperLayout, Bits: ec}.Packed()
		gd := Extended{Layout: PaperLayout, Bits: ed}.Packed()
		return gc == wc && gd == wd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapTailMatchesCrossoverBits(t *testing.T) {
	f := func(av, bv uint64, pointSeed uint8) bool {
		n := 36
		point := 1 + int(pointSeed)%(n-1)
		a := BitStringFromUint64(av, n)
		b := BitStringFromUint64(bv, n)
		wantA, wantB := CrossoverBits(a, b, point)
		a.SwapTail(b, point)
		return a.Equal(wantA) && b.Equal(wantB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapTailMultiWord(t *testing.T) {
	// Cross a 200-bit pair at every legal point against the bit-by-bit
	// definition, covering word-boundary and word-aligned cuts.
	const n = 200
	for point := 1; point < n; point++ {
		a, b := NewBitString(n), NewBitString(n)
		for i := 0; i < n; i++ {
			a.Set(i, i%3 == 0)
			b.Set(i, i%5 == 0)
		}
		want := make([]bool, 2*n)
		for i := 0; i < n; i++ {
			if i < point {
				want[i], want[n+i] = a.Get(i), b.Get(i)
			} else {
				want[i], want[n+i] = b.Get(i), a.Get(i)
			}
		}
		a.SwapTail(b, point)
		for i := 0; i < n; i++ {
			if a.Get(i) != want[i] || b.Get(i) != want[n+i] {
				t.Fatalf("point %d: mismatch at bit %d", point, i)
			}
		}
	}
}

func TestCopyFrom(t *testing.T) {
	src := BitStringFromUint64(0xDEADBEEF, 36)
	dst := NewBitString(36)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom: got %v want %v", dst, src)
	}
	src.Flip(0)
	if dst.Equal(src) {
		t.Fatal("CopyFrom must copy, not alias")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom of unequal lengths should panic")
		}
	}()
	dst.CopyFrom(NewBitString(35))
}

func TestSwapTailPanics(t *testing.T) {
	for _, point := range []int{0, 36, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SwapTail at point %d should panic", point)
				}
			}()
			a, b := NewBitString(36), NewBitString(36)
			a.SwapTail(b, point)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SwapTail of unequal lengths should panic")
		}
	}()
	a, b := NewBitString(36), NewBitString(37)
	a.SwapTail(b, 5)
}

func TestCrossoverBitsPanics(t *testing.T) {
	a, b := NewBitString(8), NewBitString(9)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unequal lengths should panic")
			}
		}()
		CrossoverBits(a, b, 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("point 0 should panic")
			}
		}()
		CrossoverBits(a, a.Clone(), 0)
	}()
}

func TestExtendedCloneIndependence(t *testing.T) {
	e := NewExtended(PaperLayout)
	e.SetGene(0, 0, LegGene{Forward: true})
	c := e.Clone()
	c.SetGene(1, 5, LegGene{RaiseFirst: true})
	if e.Gene(1, 5) != (LegGene{}) {
		t.Fatal("Clone shares storage")
	}
}

// TestFieldMatchesGet pins Field to bit-by-bit Get over multi-word
// strings: every start offset, every width 0..64, so fields inside one
// word, straddling a word boundary, and spanning a whole word all
// agree with the bits they name.
func TestFieldMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 130, 200} {
		b := NewBitString(n)
		for i := 0; i < n; i++ {
			b.Set(i, rng.Intn(2) == 1)
		}
		for i := 0; i <= n; i++ {
			for w := 0; w <= 64 && i+w <= n; w++ {
				var want uint64
				for k := 0; k < w; k++ {
					if b.Get(i + k) {
						want |= 1 << uint(k)
					}
				}
				if got := b.Field(i, w); got != want {
					t.Fatalf("len %d: Field(%d, %d) = %#x, want %#x", n, i, w, got, want)
				}
			}
		}
	}
}

func TestFieldOutOfRangePanics(t *testing.T) {
	b := NewBitString(70)
	for _, c := range [][2]int{{-1, 3}, {68, 3}, {0, 65}, {0, -1}, {71, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Field(%d, %d) on 70 bits did not panic", c[0], c[1])
				}
			}()
			b.Field(c[0], c[1])
		}()
	}
}
