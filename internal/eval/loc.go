// Package eval regenerates every table and figure of the paper's
// evaluation section from this repository's implementation: the
// abstraction/tool inventories (Tables 1 and 2), the custom-tool LoC
// comparison (Table 3), the abstraction-usage matrix (Table 4), the
// dependence and invariant precision figures (Figures 3 and 4), the
// governing-IV counts (Section 4.3), the parallelization speedups
// (Figure 5 and Section 4.4), and the DeadFunctionElimination binary-size
// study (Section 4.5). Alongside the simulated artifacts it hosts the
// measured execution study scripts/benchexec records as JSON
// (ExecStudy): every technique and the auto orchestrator on the bundled
// benchmarks, timed against the original program on both engines.
package eval

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// RepoRoot locates the repository root from this source file's location.
func RepoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// CountLoC counts non-blank, non-comment-only lines of the .go files in
// the given directory (relative to the repo root), excluding tests.
func CountLoC(relDir string) int {
	dir := filepath.Join(RepoRoot(), relDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "//") {
				continue
			}
			total++
		}
		f.Close()
	}
	return total
}

// InventoryRow is one line of Table 1 or Table 2.
type InventoryRow struct {
	Name        string
	Description string
	Dir         string
	LoC         int
	DependsOn   string
}

// Table1Abstractions reproduces the paper's Table 1: NOELLE's
// abstractions with their measured LoC in this repository and their
// dependences.
func Table1Abstractions() []InventoryRow {
	rows := []InventoryRow{
		{"PDG", "All dependences between instructions of a program", "internal/pdg", 0, "alias analyses"},
		{"aSCCDAG", "SCCDAG of a loop with attributes on each SCC", "internal/sccdag", 0, "PDG"},
		{"Call graph (CG)", "Complete call graph including indirect callees", "internal/callgraph", 0, "PDG (points-to)"},
		{"Environment (ENV) + Task (T)", "Live-in/live-out slots and thread-run code regions", "internal/env", 0, "PDG"},
		{"Data-flow engine (DFE)", "Bit-vector work-list engine for data-flow equations", "internal/dataflow", 0, ""},
		{"Loop structure (LS), INV, IV, IVS, RD, L, FR", "Loop shape, invariants, induction variables, reductions, forest", "internal/loops", 0, "PDG, aSCCDAG"},
		{"Loop builder (LB)", "Loop transformations (pre-headers, hoisting, stepping, promotion)", "internal/loopbuilder", 0, "LS, IV, INV, DFE"},
		{"Profiler (PRO)", "IR-level profilers + metadata embedding + hotness queries", "internal/profiler", 0, "LS"},
		{"Scheduler (SCD)", "PDG-safe instruction motion within and between blocks", "internal/scheduler", 0, "PDG, LS, DFE"},
		{"Architecture (AR)", "Cores, NUMA, measured core-to-core latencies", "internal/arch", 0, ""},
		{"Islands (ISL) + generic graphs", "SCCs, condensations, weakly connected components", "internal/graph", 0, ""},
		{"Alias analyses (SCAF/SVF stand-ins)", "Type/basic AA + Andersen points-to + collaboration", "internal/alias", 0, ""},
		{"Manager (noelle-load layer)", "Demand-driven construction, caching, request tracking", "internal/core", 0, "all of the above"},
	}
	for i := range rows {
		rows[i].LoC = CountLoC(rows[i].Dir)
	}
	return rows
}

// Table2Tools reproduces the paper's Table 2: the noelle-* tool binaries.
func Table2Tools() []InventoryRow {
	rows := []InventoryRow{
		{"noelle-whole-ir", "Link sources into a single IR file with embedded options", "cmd/noelle-whole-ir", 0, ""},
		{"noelle-prof-coverage", "Profile the IR on training inputs", "cmd/noelle-prof-coverage", 0, "PRO"},
		{"noelle-meta-prof-embed", "Embed profiles as metadata", "cmd/noelle-meta-prof-embed", 0, "PRO"},
		{"noelle-meta-clean", "Strip NOELLE metadata", "cmd/noelle-meta-clean", 0, ""},
		{"noelle-meta-pdg-embed", "Compute and embed the PDG", "cmd/noelle-meta-pdg-embed", 0, "PDG"},
		{"noelle-rm-lc-dependences", "Remove loop-carried dependences (scalar promotion)", "cmd/noelle-rm-lc-dependences", 0, "L, LB, aSCCDAG"},
		{"noelle-load", "Load the layer and run a custom tool", "cmd/noelle-load", 0, ""},
		{"noelle-arch", "Measure and describe the architecture", "cmd/noelle-arch", 0, "AR"},
		{"noelle-linker", "Link IR files preserving NOELLE metadata", "cmd/noelle-linker", 0, ""},
		{"noelle-bin", "Produce the runnable artifact (interpreter image)", "cmd/noelle-bin", 0, ""},
	}
	for i := range rows {
		rows[i].LoC = CountLoC(rows[i].Dir)
	}
	return rows
}

// Table3Row compares a custom tool's NOELLE LoC with its low-level
// counterpart. PaperLLVM/PaperNoelle quote the paper's numbers for
// context; MeasuredBaseline is 0 when this repo has no low-level twin
// (the paper's baselines for the big parallelizers are external
// codebases).
type Table3Row struct {
	Tool             string
	MeasuredNoelle   int
	MeasuredBaseline int
	PaperLLVM        int
	PaperNoelle      int
}

// ReductionPercent is the measured LoC reduction (0 when no baseline).
func (r Table3Row) ReductionPercent() float64 {
	if r.MeasuredBaseline == 0 {
		return 0
	}
	return 100 * float64(r.MeasuredBaseline-r.MeasuredNoelle) / float64(r.MeasuredBaseline)
}

// Table3CustomTools reproduces the paper's Table 3 with this repo's
// measured line counts.
func Table3CustomTools() []Table3Row {
	rows := []Table3Row{
		{Tool: "TIME", MeasuredNoelle: CountLoC("internal/tools/timesq"), PaperLLVM: 510, PaperNoelle: 92},
		{Tool: "COOS", MeasuredNoelle: CountLoC("internal/tools/coos"), PaperLLVM: 1641, PaperNoelle: 495},
		{Tool: "LICM", MeasuredNoelle: CountLoC("internal/tools/licm"), MeasuredBaseline: countFileLoC("internal/tools/baseline/licm.go"), PaperLLVM: 2317, PaperNoelle: 170},
		// The low-level parallelizer baseline (Figure 5's gcc/icc model)
		// only performs the legality analysis, never the transformation,
		// so a LoC comparison against the transforming DOALL would be
		// meaningless: no measured baseline.
		{Tool: "DOALL", MeasuredNoelle: CountLoC("internal/tools/doall"), PaperLLVM: 5512, PaperNoelle: 321},
		{Tool: "DEAD", MeasuredNoelle: CountLoC("internal/tools/dead"), MeasuredBaseline: countFileLoC("internal/tools/baseline/dead.go"), PaperLLVM: 7512, PaperNoelle: 61},
		{Tool: "DSWP", MeasuredNoelle: CountLoC("internal/tools/dswp"), PaperLLVM: 8525, PaperNoelle: 775},
		{Tool: "HELIX", MeasuredNoelle: CountLoC("internal/tools/helix"), PaperLLVM: 15453, PaperNoelle: 958},
		{Tool: "PRVJ", MeasuredNoelle: CountLoC("internal/tools/prvj"), PaperLLVM: 17863, PaperNoelle: 456},
		{Tool: "CARAT", MeasuredNoelle: CountLoC("internal/tools/carat"), PaperLLVM: 21899, PaperNoelle: 595},
		{Tool: "PERS", MeasuredNoelle: CountLoC("internal/tools/perspective"), PaperLLVM: 33998, PaperNoelle: 22706},
	}
	return rows
}

func countFileLoC(relFile string) int {
	f, err := os.Open(filepath.Join(RepoRoot(), relFile))
	if err != nil {
		return 0
	}
	defer f.Close()
	total := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		total++
	}
	return total
}

// FormatInventory renders inventory rows as an aligned text table.
func FormatInventory(title string, rows []InventoryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-42s %6d LoC  %s\n", r.Name, r.LoC, r.DependsOn)
		total += r.LoC
	}
	fmt.Fprintf(&b, "  %-42s %6d LoC\n", "TOTAL", total)
	return b.String()
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: custom tools, LoC (this repo measured; paper numbers for reference)\n")
	fmt.Fprintf(&b, "  %-6s %14s %18s %12s %22s\n", "tool", "NOELLE (meas.)", "baseline (meas.)", "reduction", "paper LLVM->NOELLE")
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].PaperLLVM < rows[j].PaperLLVM })
	for _, r := range rows {
		red := "-"
		if r.MeasuredBaseline > 0 {
			red = fmt.Sprintf("%.1f%%", r.ReductionPercent())
		}
		base := "-"
		if r.MeasuredBaseline > 0 {
			base = fmt.Sprintf("%d", r.MeasuredBaseline)
		}
		fmt.Fprintf(&b, "  %-6s %14d %18s %12s %15d -> %d\n",
			r.Tool, r.MeasuredNoelle, base, red, r.PaperLLVM, r.PaperNoelle)
	}
	return b.String()
}
