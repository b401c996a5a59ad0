package genome

import (
	"fmt"
	"strings"
)

// Layout describes the shape of a generalized gait genome: Steps walk
// steps for a robot with Legs legs, three bits per leg-step. The
// paper's Discipulus Simplex uses Layout{Steps: 2, Legs: 6}; the
// future-work extension ("bigger genomes") uses more steps.
type Layout struct {
	Steps int
	Legs  int
}

// PaperLayout is the layout used throughout the paper: 2 steps, 6 legs,
// 36 bits.
var PaperLayout = Layout{Steps: StepsPerGenome, Legs: Legs}

// Bits returns the genome length in bits for this layout.
func (ly Layout) Bits() int { return ly.Steps * ly.Legs * BitsPerLegStep }

// Validate reports an error for degenerate layouts.
func (ly Layout) Validate() error {
	if ly.Steps < 1 {
		return fmt.Errorf("genome: layout needs at least 1 step, got %d", ly.Steps)
	}
	if ly.Legs < 1 {
		return fmt.Errorf("genome: layout needs at least 1 leg, got %d", ly.Legs)
	}
	return nil
}

// Extended is a gait genome of arbitrary layout, stored as a BitString.
// Gene bit k of (step s, leg l) lives at bit (s*Legs+l)*BitsPerLegStep+k,
// matching the packed Genome layout when the layout is PaperLayout.
type Extended struct {
	Layout Layout
	Bits   BitString
}

// NewExtended allocates an all-zero extended genome for the layout.
func NewExtended(ly Layout) Extended {
	return Extended{Layout: ly, Bits: NewBitString(ly.Bits())}
}

// FromGenome converts a packed 36-bit genome to its extended form.
func FromGenome(g Genome) Extended {
	e := NewExtended(PaperLayout)
	for i := 0; i < Bits; i++ {
		e.Bits.Set(i, g.Bit(i))
	}
	return e
}

// Packed converts an extended genome with the paper layout back to the
// packed 36-bit representation. It panics on other layouts.
func (e Extended) Packed() Genome {
	if e.Layout != PaperLayout {
		panic(fmt.Sprintf("genome: Packed called on layout %+v", e.Layout))
	}
	var g Genome
	for i := 0; i < Bits; i++ {
		if e.Bits.Get(i) {
			g |= 1 << uint(i)
		}
	}
	return g
}

// Gene extracts the decoded gene for one leg in one step.
func (e Extended) Gene(step, leg int) LegGene {
	return LegGeneFromBits(e.Bits.Field((step*e.Layout.Legs+leg)*BitsPerLegStep, BitsPerLegStep))
}

// SetGene stores the gene for one leg in one step.
func (e Extended) SetGene(step, leg int, gene LegGene) {
	base := (step*e.Layout.Legs + leg) * BitsPerLegStep
	b := gene.Bits()
	e.Bits.Set(base, b&1 != 0)
	e.Bits.Set(base+1, b&2 != 0)
	e.Bits.Set(base+2, b&4 != 0)
}

// Clone returns an independent deep copy.
func (e Extended) Clone() Extended {
	return Extended{Layout: e.Layout, Bits: e.Bits.Clone()}
}

// BitString is a fixed-length bit vector used as the genome substrate
// in the generalized GA processor. Bit 0 is the least significant bit
// of word 0.
type BitString struct {
	n     int
	words []uint64
}

// NewBitString allocates an all-zero bit string of n bits.
func NewBitString(n int) BitString {
	if n < 0 {
		panic("genome: negative BitString length")
	}
	return BitString{n: n, words: make([]uint64, (n+63)/64)}
}

// BitStringFromUint64 builds an n-bit string from the low n bits of v
// (n <= 64).
func BitStringFromUint64(v uint64, n int) BitString {
	if n > 64 {
		panic("genome: BitStringFromUint64 supports at most 64 bits")
	}
	b := NewBitString(n)
	if n > 0 {
		if n < 64 {
			v &= uint64(1)<<uint(n) - 1
		}
		b.words[0] = v
	}
	return b
}

// Len returns the number of bits.
func (b BitString) Len() int { return b.n }

// Get returns bit i.
func (b BitString) Get(i int) bool {
	b.check(i)
	return b.words[i/64]>>(uint(i)%64)&1 != 0
}

// Field returns the n bits [i, i+n) as the low bits of a word
// (0 <= n <= 64). The field may straddle two backing words. It reads
// in place: unlike Words, it copies nothing, so word-level kernels
// (fitness.BreakdownExtended) can scan a genome without allocating.
//
//leo:hotpath
func (b BitString) Field(i, n int) uint64 {
	if uint(n) > 64 || i < 0 || i > b.n-n {
		panic(fmt.Sprintf("genome: bit field [%d,%d+%d) out of range [0,%d)", i, i, n, b.n))
	}
	if n == 0 {
		return 0
	}
	w, off := uint(i)/64, uint(i)%64
	v := b.words[w] >> off
	if off+uint(n) > 64 {
		v |= b.words[w+1] << (64 - off)
	}
	// For n == 64 the shift yields 0 and the mask all ones.
	return v & (uint64(1)<<uint(n) - 1)
}

// Set sets bit i to v.
func (b BitString) Set(i int, v bool) {
	b.check(i)
	if v {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Flip inverts bit i.
func (b BitString) Flip(i int) {
	b.check(i)
	b.words[i/64] ^= 1 << (uint(i) % 64)
}

func (b BitString) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("genome: bit index %d out of range [0,%d)", i, b.n))
	}
}

// OnesCount returns the number of set bits.
func (b BitString) OnesCount() int {
	n := 0
	for _, w := range b.words {
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// Clone returns an independent deep copy.
func (b BitString) Clone() BitString {
	c := BitString{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites this bit string with the contents of src, which
// must have the same length. No allocation.
func (b BitString) CopyFrom(src BitString) {
	if b.n != src.n {
		panic("genome: CopyFrom of unequal-length bit strings")
	}
	copy(b.words, src.words)
}

// SwapTail exchanges bits [point, Len) between two equal-length bit
// strings in place — single-point crossover without allocating. The
// cut point must satisfy 0 < point < Len.
func (b BitString) SwapTail(o BitString, point int) {
	if b.n != o.n {
		panic("genome: SwapTail of unequal-length bit strings")
	}
	if point <= 0 || point >= b.n {
		panic(fmt.Sprintf("genome: crossover point %d out of range (0,%d)", point, b.n))
	}
	w := point / 64
	// Partial first word: swap only the bits at and above the offset.
	if off := uint(point) % 64; off != 0 {
		mask := ^uint64(0) << off
		d := (b.words[w] ^ o.words[w]) & mask
		b.words[w] ^= d
		o.words[w] ^= d
		w++
	}
	for ; w < len(b.words); w++ {
		b.words[w], o.words[w] = o.words[w], b.words[w]
	}
}

// Equal reports whether two bit strings have identical length and bits.
func (b BitString) Equal(o BitString) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// CrossoverBits performs single-point crossover on two equal-length bit
// strings, cutting after bit position point (0 < point < Len), swapping
// the high parts. The inputs are not modified.
func CrossoverBits(a, b BitString, point int) (BitString, BitString) {
	if a.n != b.n {
		panic("genome: crossover of unequal-length bit strings")
	}
	c, d := a.Clone(), b.Clone()
	c.SwapTail(d, point)
	return c, d
}

// Words returns a copy of the backing words, least-significant word
// first. Bits at and above Len are zero.
func (b BitString) Words() []uint64 {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return w
}

// BitStringFromWords builds an n-bit string from backing words (least
// significant first), masking any bits at or above n. It panics if the
// word count does not match the length.
func BitStringFromWords(words []uint64, n int) BitString {
	b := NewBitString(n)
	if len(words) != len(b.words) {
		panic(fmt.Sprintf("genome: %d words cannot back a %d-bit string", len(words), n))
	}
	copy(b.words, words)
	if r := uint(n) % 64; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= uint64(1)<<r - 1
	}
	return b
}

// Uint64 returns the low min(Len,64) bits as a uint64.
func (b BitString) Uint64() uint64 {
	if len(b.words) == 0 {
		return 0
	}
	return b.words[0]
}

// String renders the bit string most-significant-bit first.
func (b BitString) String() string {
	var sb strings.Builder
	for i := b.n - 1; i >= 0; i-- {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
