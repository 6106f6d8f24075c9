// benchexec records the execution study into a JSON artifact (make
// bench-exec → BENCH_exec.json). The measurement is eval.ExecStudy — the
// same harness behind `noelle-eval -only exec` — over a fixed matrix of
// named cells: both bundled benchmarks × doall, dswp, helix and auto ×
// the walker and compiled engines × worker counts up to the host's CPUs.
// Each row times the original program, the lowered module under -seq
// dispatch and the lowered module in parallel, interleaved
// eval.ExecRepeats times, and records each leg's median, min and max.
// The headline is end_to_end_speedup (original / parallel); seq_over_par
// is a diagnostic. Any divergence from the original program, or between
// the lowered -seq and parallel runs, fails the run and names the cell.
//
// Rows that lowered loops carry an attribution block from a separate
// traced run (internal/obs); -trace additionally exports those runs as
// one Chrome trace-event JSON timeline.
//
// Usage: go run ./scripts/benchexec [-trace trace.json] [-o BENCH_exec.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"noelle/internal/eval"
	"noelle/internal/toolio"
)

// size is the bundled benchmarks' default iteration count.
const size = 65536

// Artifact is the written JSON document.
type Artifact struct {
	Size    int            `json:"size"`
	Repeats int            `json:"repeats"`
	Meta    eval.BenchMeta `json:"meta"`
	Rows    []eval.ExecRow `json:"rows"`
}

func main() {
	trace := flag.String("trace", "", "also export the attribution runs as a Chrome trace-event JSON file")
	out := flag.String("o", "BENCH_exec.json", "output JSON path")
	flag.Parse()

	if err := run(*trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchexec:", err)
		os.Exit(1)
	}
}

func run(trace, out string) error {
	rows, err := eval.ExecStudy(size)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, eval.FormatExec(rows))

	if trace != "" {
		legs := eval.ExecTraceLegs(rows)
		if err := toolio.WriteTraceFile(trace, legs...); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d legs)\n", trace, len(legs))
	}

	art := Artifact{
		Size:    size,
		Repeats: eval.ExecRepeats,
		Meta:    eval.NewBenchMeta("make bench-exec", 0.95),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
