package eval_test

import (
	"runtime"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/eval"
)

// TestExecStudySmoke runs the whole execution matrix at a small size
// (the study itself fails on any divergence from the original or
// between the lowered -seq and parallel runs) and checks the row
// columns: unique cell names, the headline identity, real communication
// traffic for the pipelining techniques on the pipeline benchmark, and
// a modeled speedup above 1x on the cells each model was built for.
func TestExecStudySmoke(t *testing.T) {
	rows, err := eval.ExecStudy(2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(eval.ExecMatrix()) {
		t.Fatalf("got %d rows, want one per matrix cell (%d)", len(rows), len(eval.ExecMatrix()))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Name] {
			t.Errorf("duplicate cell name %q", r.Name)
		}
		seen[r.Name] = true
		if got := r.OriginalMS.Median / r.ParMS.Median; r.EndToEnd != got {
			t.Errorf("%s: end_to_end_speedup %v, want original/par = %v", r.Name, r.EndToEnd, got)
		}
		modeledCell := r.Benchmark == "parallel" && r.Technique == "doall" ||
			r.Benchmark == "pipeline" && (r.Technique == "dswp" || r.Technique == "helix")
		if modeledCell && r.Modeled <= 1 {
			t.Errorf("%s: modeled speedup %.2fx, want > 1x", r.Name, r.Modeled)
		}
		if r.Benchmark == "pipeline" && (r.Technique == "dswp" || r.Technique == "helix") {
			if r.CommOps == 0 {
				t.Errorf("%s: no communication operations recorded", r.Name)
			}
			if r.Parts < 1 {
				t.Errorf("%s: no pipeline parts planned", r.Name)
			}
		}
	}
}

// TestPipelineMeasuredSpeedup is the acceptance bar for the executable
// pipelines: on a real multi-core machine the DSWP-lowered benchmark
// must beat its own sequential fallback in wall-clock (the seq_over_par
// diagnostic; the end-to-end column against the original program is
// recorded, not gated). Skipped wherever the measurement would be noise
// (shared/1-core runners, -race, -short) via the shared gate, like the
// DOALL equivalent in internal/interp.
func TestPipelineMeasuredSpeedup(t *testing.T) {
	bench.SkipIfNoisy(t, 4)
	rows, err := eval.ExecStudy(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Benchmark == "pipeline" && r.Technique == "dswp" && r.Engine == "compiled" && r.Workers == 4 &&
			r.SeqOverPar <= 1.05 {
			t.Errorf("%s: seq_over_par %.2fx, want > 1.05x on %d CPUs", r.Name, r.SeqOverPar, runtime.NumCPU())
		}
	}
}
