package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/obs"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/doall"
	"noelle/internal/tools/dswp"
	"noelle/internal/tools/helix"
)

// execBenchmarks are the study's two workloads, each with the hotness
// threshold its loop structure calls for: every loop of the
// DOALL-friendly parallel program is hot, while the pipeline program's
// threshold admits only its dominant (non-DOALL-able) loop, so the
// cheap init/checksum sweeps stay sequential.
var execBenchmarks = []struct {
	Name    string
	Build   func(size int) (*ir.Module, error)
	Hotness float64
}{
	{"parallel", bench.ParallelProgram, 0.01},
	{"pipeline", bench.PipelineProgram, 0.2},
}

var (
	execTechniques = []string{"doall", "dswp", "helix", "auto"}
	execEngines    = []interp.Engine{interp.EngineWalker, interp.EngineCompiled}
)

// ExecRepeats is how many times each row's three legs run, interleaved,
// before their medians are taken.
const ExecRepeats = 5

// ExecCell names one instance of the execution matrix.
type ExecCell struct {
	Name      string `json:"name"`
	Benchmark string `json:"benchmark"`
	Technique string `json:"technique"`
	Engine    string `json:"engine"`
	// Workers is both the planners' core count and the dispatch cap.
	Workers int `json:"workers"`
}

// workerSweep returns the worker counts of a sweep: powers of two
// strictly below top, then top itself. It returns nil when top < 1.
func workerSweep(top int) []int {
	if top < 1 {
		return nil
	}
	var counts []int
	for w := 2; w < top; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, top)
}

// ExecMatrix returns the study's fixed matrix on this host: benchmark ×
// technique × engine × workers, with workers swept up to
// max(2, runtime.NumCPU()).
func ExecMatrix() []ExecCell {
	var cells []ExecCell
	for _, bm := range execBenchmarks {
		for _, tech := range execTechniques {
			for _, eng := range execEngines {
				for _, w := range workerSweep(max(2, runtime.NumCPU())) {
					cells = append(cells, ExecCell{
						Name:      fmt.Sprintf("%s/%s/%s/w%d", bm.Name, tech, eng, w),
						Benchmark: bm.Name, Technique: tech, Engine: string(eng), Workers: w,
					})
				}
			}
		}
	}
	return cells
}

// Timing summarizes one leg's repeats, in milliseconds.
type Timing struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// ExecRow is one measured cell. The headline is EndToEnd: the original,
// untransformed program's median wall time over the lowered module's
// median parallel wall time, on the same engine. SeqOverPar (lowered
// -seq over lowered parallel) is a diagnostic: it isolates what the
// parallel runtime buys from what the lowering costs.
type ExecRow struct {
	ExecCell
	// Loops is how many loops the technique lowered; Chosen lists the
	// auto row's per-loop decisions as "fn/header=technique".
	Loops  int      `json:"loops"`
	Chosen []string `json:"chosen,omitempty"`
	// Parts is DSWP's stage count or HELIX's sequential segment count.
	Parts int `json:"parts,omitempty"`
	// CommOps counts the parallel run's queue pushes+pops and signal
	// waits+fires.
	CommOps int64 `json:"comm_ops"`
	// Modeled is the machine simulator's whole-program speedup of the
	// technique's plan (zero for auto, which has no single model).
	Modeled      float64 `json:"modeled,omitempty"`
	OriginalMS   Timing  `json:"original_ms"`
	LoweredSeqMS Timing  `json:"lowered_seq_ms"`
	ParMS        Timing  `json:"par_ms"`
	EndToEnd     float64 `json:"end_to_end_speedup"`
	SeqOverPar   float64 `json:"seq_over_par"`
	// Attrib decomposes the parallel wall time from a separate traced
	// run (nil when nothing was lowered); Trace is that run's tracer.
	Attrib *Attribution `json:"attribution,omitempty"`
	Trace  *obs.Tracer  `json:"-"`
}

// execLowering is a cell's engine-independent setup: the lowered module
// and the plan-side columns.
type execLowering struct {
	mod     *ir.Module
	loops   int
	chosen  []string
	parts   int
	modeled float64
}

// ExecStudy runs every cell of ExecMatrix at the given benchmark size
// (0 = the bundled default). Each cell's lowering is shared by its two
// engines. Any divergence — a lowered run whose output or exit code
// differs from the original's, or a parallel run whose output, memory
// image, Steps or Cycles differ from the lowered -seq run's — is an
// error naming the cell, as is an auto row that lowered nothing.
func ExecStudy(size int) ([]ExecRow, error) {
	type program struct {
		mod     *ir.Module
		total   int64
		hotness float64
	}
	progs := map[string]*program{}
	for _, bm := range execBenchmarks {
		m, err := bm.Build(size)
		if err != nil {
			return nil, err
		}
		prof, err := profiler.Collect(m)
		if err != nil {
			return nil, err
		}
		prof.Embed()
		progs[bm.Name] = &program{m, prof.TotalCycles, bm.Hotness}
	}
	lowerings := map[string]*execLowering{}
	var rows []ExecRow
	for _, cell := range ExecMatrix() {
		p := progs[cell.Benchmark]
		key := fmt.Sprintf("%s/%s/%d", cell.Benchmark, cell.Technique, cell.Workers)
		low := lowerings[key]
		if low == nil {
			var err error
			if low, err = lowerCell(p.mod, p.total, p.hotness, cell.Technique, cell.Workers); err != nil {
				return nil, fmt.Errorf("%s: %w", cell.Name, err)
			}
			lowerings[key] = low
		}
		row, err := measureCell(cell, p.mod, low)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cell.Name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func execManager(m *ir.Module, hotness float64, workers int) *core.Noelle {
	opts := core.DefaultOptions()
	opts.Cores = workers
	opts.MinHotness = hotness
	return core.New(m, opts)
}

// lowerCell models the technique on one copy of the profiled original
// and lowers it on another.
func lowerCell(orig *ir.Module, total int64, hotness float64, tech string, workers int) (*execLowering, error) {
	low := &execLowering{mod: ir.CloneModule(orig)}
	if tech != "auto" {
		low.modeled, low.parts = modelTechnique(execManager(ir.CloneModule(orig), hotness, workers), tech, total, workers)
	}
	n := execManager(low.mod, hotness, workers)
	switch tech {
	case "doall":
		res, err := doall.Run(n)
		if err != nil {
			return nil, err
		}
		low.loops = len(res.Parallelized)
	case "dswp":
		low.loops = len(dswp.Run(n, dswp.Exec{Enabled: true}).Lowered)
	case "helix":
		low.loops = len(helix.Run(n, false, helix.Exec{Enabled: true}).Lowered)
	case "auto":
		res, err := auto.Run(context.Background(), n, tool.Options{ExecutePlans: true})
		if err != nil {
			return nil, err
		}
		low.loops = res.Lowered()
		if low.loops == 0 {
			return nil, fmt.Errorf("the auto orchestrator lowered nothing")
		}
		for _, s := range res.Selections {
			if s.Winner != "" {
				low.chosen = append(low.chosen, fmt.Sprintf("%s/%s=%s", s.Fn, s.Header, s.Winner))
			}
		}
	}
	if err := ir.Verify(low.mod); err != nil {
		return nil, fmt.Errorf("lowered module malformed: %w", err)
	}
	return low, nil
}

// modelTechnique simulates the technique's plan over the unmodified
// module: SimulateDOALL and SimulateHELIX on the default machine config,
// SimulateDSWP on the queue-calibrated one. parts is the largest DSWP
// stage count or HELIX sequential segment count planned.
func modelTechnique(n *core.Noelle, tech string, total int64, workers int) (modeled float64, parts int) {
	defCfg := machine.DefaultConfig(n.Arch(), workers)
	var plan func(*loops.LS) (map[*ir.Instr]int, int, bool)
	var sim func(*machine.Invocation) int64
	switch tech {
	case "doall":
		plan = func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
			return map[*ir.Instr]int{}, 1, doall.Eligible(n.Loop(ls)) == nil
		}
		sim = func(inv *machine.Invocation) int64 { return machine.SimulateDOALL(inv, defCfg, 8) }
	case "dswp":
		calCfg := machine.CalibratedConfig(n.Arch(), workers, interp.DefaultCostModel())
		plan = func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
			p, _ := dswp.PlanLoop(n, ls)
			if p == nil {
				return nil, 0, false
			}
			parts = max(parts, p.NumStages)
			return p.SegmentOf, p.NumStages, true
		}
		sim = func(inv *machine.Invocation) int64 { return machine.SimulateDSWP(inv, calCfg) }
	case "helix":
		plan = func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
			p, _ := helix.PlanLoop(n, ls, false)
			if p == nil {
				return nil, 0, false
			}
			parts = max(parts, p.NumSeq)
			return p.SegmentOf, p.NumSegments(), true
		}
		sim = func(inv *machine.Invocation) int64 { return machine.SimulateHELIX(inv, defCfg) }
	}
	seqs, pars := planTechnique(n, plan, sim)
	return machine.Speedup(total, seqs, pars), parts
}

// measureCell runs the cell's three legs — the original module, the
// lowered module under -seq dispatch, and the lowered module in
// parallel — ExecRepeats times, interleaved so drift lands on every leg
// alike, checking each repetition for divergence.
func measureCell(cell ExecCell, orig *ir.Module, low *execLowering) (*ExecRow, error) {
	row := &ExecRow{ExecCell: cell, Loops: low.loops, Chosen: low.chosen, Parts: low.parts, Modeled: low.modeled}
	eng := interp.Engine(cell.Engine)
	run := func(m *ir.Module, seq bool) (*interp.Interp, int64, time.Duration, error) {
		it := interp.New(m)
		it.Eng = eng
		it.SeqDispatch = seq
		it.DispatchWorkers = cell.Workers
		runtime.GC() // start every run from the same heap state
		start := time.Now()
		exit, err := it.Run()
		return it, exit, time.Since(start), err
	}
	var origT, seqT, parT []time.Duration
	for i := 0; i < ExecRepeats; i++ {
		o, oExit, od, err := run(orig, false)
		if err != nil {
			return nil, fmt.Errorf("original run: %w", err)
		}
		s, sExit, sd, err := run(low.mod, true)
		if err != nil {
			return nil, fmt.Errorf("lowered -seq run: %w", err)
		}
		p, pExit, pd, err := run(low.mod, false)
		if err != nil {
			return nil, fmt.Errorf("parallel run: %w", err)
		}
		if s.Output.String() != o.Output.String() || sExit != oExit ||
			p.Output.String() != o.Output.String() || pExit != oExit {
			return nil, fmt.Errorf("lowered run diverged from the original (output or exit code)")
		}
		if p.MemoryFingerprint() != s.MemoryFingerprint() || p.Steps != s.Steps || p.Cycles != s.Cycles {
			return nil, fmt.Errorf("parallel run diverged from the lowered -seq run (memory %x vs %x, steps %d vs %d, cycles %d vs %d)",
				p.MemoryFingerprint(), s.MemoryFingerprint(), p.Steps, s.Steps, p.Cycles, s.Cycles)
		}
		_, pushes, pops, waits, fires := p.CommStats()
		row.CommOps = pushes + pops + waits + fires
		origT, seqT, parT = append(origT, od), append(seqT, sd), append(parT, pd)
	}
	row.OriginalMS, row.LoweredSeqMS, row.ParMS = summarize(origT), summarize(seqT), summarize(parT)
	row.EndToEnd = row.OriginalMS.Median / row.ParMS.Median
	row.SeqOverPar = row.LoweredSeqMS.Median / row.ParMS.Median

	// Attribution pass: one extra traced run, separate from the timing
	// legs so the tracer's per-op tax never skews the speedup columns.
	if row.Loops > 0 {
		seqWall := time.Duration(row.LoweredSeqMS.Median * float64(time.Millisecond))
		attrib, tr, err := attributionRun(low.mod, cell.Workers, seqWall, eng)
		if err != nil {
			return nil, err
		}
		row.Attrib, row.Trace = attrib, tr
	}
	return row, nil
}

func summarize(ds []time.Duration) Timing {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Microseconds()) / 1000
	}
	sort.Float64s(ms)
	mid := len(ms) / 2
	med := ms[mid]
	if len(ms)%2 == 0 {
		med = (ms[mid-1] + ms[mid]) / 2
	}
	return Timing{Median: med, Min: ms[0], Max: ms[len(ms)-1]}
}

// ExecTraceLegs names each row's attribution tracer for
// obs.WriteChromeTrace (rows without one are skipped by the writer).
func ExecTraceLegs(rows []ExecRow) []obs.TraceLeg {
	legs := make([]obs.TraceLeg, 0, len(rows))
	for _, r := range rows {
		if r.Trace != nil {
			legs = append(legs, obs.TraceLeg{Name: r.Name, Tracer: r.Trace})
		}
	}
	return legs
}

// FormatExec renders the study, with one footer line per auto row
// comparing it against the best single technique of the same
// benchmark, engine and worker count.
func FormatExec(rows []ExecRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Execution study: end-to-end speedups over the original program (median of %d interleaved runs)\n", ExecRepeats)
	fmt.Fprintf(&b, "  %-28s %5s %8s %10s %10s %10s %9s %8s %9s\n",
		"cell", "loops", "modeled", "original", "lowered", "par", "e2e", "seq/par", "comm ops")
	for _, r := range rows {
		modeled := "-"
		if r.Modeled > 0 {
			modeled = fmt.Sprintf("%.2fx", r.Modeled)
		}
		fmt.Fprintf(&b, "  %-28s %5d %8s %8.1fms %8.1fms %8.1fms %8.2fx %7.2fx %9d\n",
			r.Name, r.Loops, modeled, r.OriginalMS.Median, r.LoweredSeqMS.Median, r.ParMS.Median,
			r.EndToEnd, r.SeqOverPar, r.CommOps)
		if r.Attrib != nil {
			fmt.Fprintln(&b, FormatAttribution(r.Attrib))
		}
	}
	for _, a := range rows {
		if a.Technique != "auto" {
			continue
		}
		var best *ExecRow
		for i := range rows {
			r := &rows[i]
			if r.Technique != "auto" && r.Benchmark == a.Benchmark && r.Engine == a.Engine && r.Workers == a.Workers &&
				(best == nil || r.EndToEnd > best.EndToEnd) {
				best = r
			}
		}
		if best != nil {
			fmt.Fprintf(&b, "  %s/%s/w%d: auto %.2fx vs best single (%s) %.2fx; chose %s\n",
				a.Benchmark, a.Engine, a.Workers, a.EndToEnd, best.Technique, best.EndToEnd, strings.Join(a.Chosen, ", "))
		}
	}
	b.WriteString("  (e2e = original wall / parallel wall of the lowered module, same engine;\n")
	b.WriteString("   seq/par = lowered -seq wall / parallel wall; modeled = the machine simulator)\n")
	return b.String()
}
