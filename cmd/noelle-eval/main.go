// noelle-eval regenerates every table and figure of the paper's
// evaluation from this repository (see DESIGN.md's per-experiment index
// and EXPERIMENTS.md for the recorded results).
//
// Usage: noelle-eval [-only table1|table2|table3|table4|fig3|fig4|goviv|fig5|spec|dead|exec]
//
// The exec artifact complements the simulated Figure-5 numbers with
// *measured* speedups: it lowers both bundled benchmarks with every
// technique and the auto orchestrator, on both execution engines and
// every worker count up to the host's CPUs, and reports each lowered
// module's parallel wall time against the original program's
// (eval.ExecStudy). -trace exports its attribution runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"noelle/internal/bench"
	"noelle/internal/eval"
	"noelle/internal/toolio"
)

func main() {
	only := flag.String("only", "", "emit a single artifact")
	cores := flag.Int("cores", 12, "core count for the speedup figures")
	trace := flag.String("trace", "", "exec artifact: export the attribution runs as a Chrome trace-event JSON timeline")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the evaluation to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run, GC-settled) to this file")
	flag.Parse()

	stopProfiles, perr := toolio.StartProfiles(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", perr)
		os.Exit(1)
	}
	defer stopProfiles()

	emit := func(name string, gen func() (string, error)) {
		if *only != "" && *only != name {
			return
		}
		text, err := gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(text)
	}

	emit("table1", func() (string, error) {
		return eval.FormatInventory("Table 1: NOELLE abstractions (this repo)", eval.Table1Abstractions()), nil
	})
	emit("table2", func() (string, error) {
		return eval.FormatInventory("Table 2: NOELLE tools (this repo)", eval.Table2Tools()), nil
	})
	emit("table3", func() (string, error) {
		return eval.FormatTable3(eval.Table3CustomTools()), nil
	})
	emit("table4", func() (string, error) {
		rows, err := eval.Table4UsageMatrix()
		if err != nil {
			return "", err
		}
		return eval.FormatTable4(rows), nil
	})
	emit("fig3", func() (string, error) {
		rows, err := eval.Figure3Dependences()
		if err != nil {
			return "", err
		}
		return eval.FormatFigure3(rows), nil
	})
	emit("fig4", func() (string, error) {
		rows, err := eval.Figure4Invariants()
		if err != nil {
			return "", err
		}
		return eval.FormatFigure4(rows), nil
	})
	emit("goviv", func() (string, error) {
		g, err := eval.GoverningIVs()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Section 4.3: governing IVs across %d loops: LLVM-style %d, NOELLE %d (paper: 11 vs 385)",
			g.Loops, g.LLVMTotal, g.NoelleTotal), nil
	})
	emit("fig5", func() (string, error) {
		rows, err := eval.Figure5Speedups([]bench.Suite{bench.PARSEC, bench.MiBench}, *cores)
		if err != nil {
			return "", err
		}
		return eval.FormatFigure5("Figure 5: PARSEC + MiBench program speedups", rows, *cores), nil
	})
	emit("spec", func() (string, error) {
		rows, err := eval.Figure5Speedups([]bench.Suite{bench.SPEC}, *cores)
		if err != nil {
			return "", err
		}
		return eval.FormatFigure5("Section 4.4: SPEC CPU2017 program speedups", rows, *cores), nil
	})
	emit("dead", func() (string, error) {
		rows, err := eval.DeadFunctionStudy()
		if err != nil {
			return "", err
		}
		return eval.FormatDeadStudy(rows), nil
	})
	// exec is explicit-only: it is a timing measurement, so it is not
	// part of the default (deterministic) artifact sweep.
	if *only == "exec" {
		rows, err := eval.ExecStudy(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exec: error: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(eval.FormatExec(rows))
		if *trace != "" {
			legs := eval.ExecTraceLegs(rows)
			if err := toolio.WriteTraceFile(*trace, legs...); err != nil {
				fmt.Fprintf(os.Stderr, "error: writing trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %s (%d legs)\n", *trace, len(legs))
		}
	}
}
