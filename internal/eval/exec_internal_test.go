package eval

import (
	"strings"
	"testing"

	"noelle/internal/bench"
)

// TestMeasureCellFailsOnDivergence checks the study's end-to-end oracle:
// a "lowered" module whose output differs from the original program's
// must fail the cell instead of producing a row.
func TestMeasureCellFailsOnDivergence(t *testing.T) {
	orig, err := bench.ParallelProgram(256)
	if err != nil {
		t.Fatal(err)
	}
	other, err := bench.ParallelProgram(128)
	if err != nil {
		t.Fatal(err)
	}
	cell := ExecCell{Name: "parallel/doall/compiled/w2", Engine: "compiled", Workers: 2}
	_, err = measureCell(cell, orig, &execLowering{mod: other})
	if err == nil || !strings.Contains(err.Error(), "diverged from the original") {
		t.Fatalf("measureCell on a diverging module: err = %v, want a divergence error", err)
	}
}
