package logic_test

import (
	"testing"

	"leonardo/internal/gap"
	"leonardo/internal/gapcirc"
	"leonardo/internal/logic"
)

var compiled *logic.Sim

// BenchmarkCompile times Compile on the paper's gate-level GAP, plain
// and freezable. Every NewRunner and every resume of a gate-level run
// compiles its circuit.
func BenchmarkCompile(b *testing.B) {
	for _, tc := range []struct {
		name      string
		freezable bool
	}{{"paper", false}, {"freezable", true}} {
		co, err := gapcirc.BuildWith(gap.PaperParams(1), gapcirc.BuildOpts{Freezable: tc.freezable})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if compiled, err = co.Circuit.Compile(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
