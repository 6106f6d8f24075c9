package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"noelle/internal/bench"
	"noelle/internal/eval"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/obs"
)

const (
	// execSize is the array length / iteration count of both bundled
	// exec programs.
	execSize = 65536
	// execMinRuns is the fewest transformed runs an exec run makes, so
	// op_ms_tail (p90) has at least minBeyond samples beyond it.
	execMinRuns = 110
	// Hotness thresholds of the bundled programs (the values the
	// evaluation studies use): the DOALL program's four loops are all
	// hot; the pipeline program's init and checksum loops are not.
	doallHotness    = 0.01
	pipelineHotness = 0.2
)

func runDoall(e *env) (*outcome, error) {
	return runExec(e, bench.ParallelProgram, doallHotness)
}

func runPipeline(e *env) (*outcome, error) {
	return runExec(e, bench.PipelineProgram, pipelineHotness)
}

// execProgram is an exec workload's set-up: the original module, its
// walker reference, and the auto-transformed module.
type execProgram struct {
	orig, xform *ir.Module
	ref         reference
	lowered     float64 // lowered / loops
}

// setupExec builds the program, records the walker reference of the
// untransformed module, and sends a copy through auto. Set-up spans
// use negative operation IDs.
func setupExec(build func(int) (*ir.Module, error), hotness float64, nproc int, tr *tracer, op int64) (*execProgram, error) {
	root := tr.begin(op, -1, "setup")
	defer tr.end(root)
	sp := tr.begin(op, root, "minic")
	orig, err := build(execSize)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, root, "interp.reference")
	ref := execute(orig, interp.EngineWalker, 1, nil)
	tr.end(sp)
	if ref.err != nil {
		return nil, fmt.Errorf("reference run: %w", ref.err)
	}
	c, err := transform(ir.CloneModule(orig), []string{"auto"}, hotness, nproc, tr, op, root)
	if err != nil {
		return nil, err
	}
	if c.lowered == 0 {
		return nil, fmt.Errorf("auto lowered none of %d loops", c.loops)
	}
	return &execProgram{orig: orig, xform: c.mod, ref: ref.reference, lowered: ratio(float64(c.lowered), float64(c.loops))}, nil
}

// execCounts are the exact per-run counters of one transformed run.
type execCounts struct {
	steps, cycles, dispatches, skew           float64
	pushes, pops, waits, fires                float64
	parkPush, parkPop, parkWait               float64
	overheadMS, blockedMS, signalMS, serialMS float64
}

func countsOf(it *interp.Interp) execCounts {
	_, pushes, pops, waits, fires := it.CommStats()
	parks := it.ParkStats()
	c := execCounts{
		steps: float64(it.Steps), cycles: float64(it.Cycles),
		pushes: float64(pushes), pops: float64(pops), waits: float64(waits), fires: float64(fires),
		parkPush: float64(parks.PushParks), parkPop: float64(parks.PopParks), parkWait: float64(parks.WaitParks),
	}
	// Lane skew: the critical (busiest) lane's steps over the mean
	// lane's, summed over dispatches, so 1 means perfectly balanced.
	type lanes struct {
		max, sum float64
		n        int
	}
	byDispatch := map[int]*lanes{}
	for _, w := range it.WorkerStats() {
		l := byDispatch[w.Dispatch]
		if l == nil {
			l = &lanes{}
			byDispatch[w.Dispatch] = l
		}
		l.max = max(l.max, float64(w.Steps))
		l.sum += float64(w.Steps)
		l.n++
	}
	var crit, mean float64
	for _, l := range byDispatch {
		crit += l.max
		mean += l.sum / float64(l.n)
	}
	c.dispatches = float64(len(byDispatch))
	c.skew = ratio(crit, mean)
	return c
}

// execPair is one measured pair: a transformed and an original run.
type execPair struct {
	run, orig execution
	alloc     float64 // MB allocated by the transformed run
	counts    execCounts
}

// runPair runs the original and the transformed module once each, in
// the given order. A traced pair attaches an obs.Tracer to the
// transformed run and decomposes it with eval.AttributeTrace.
func runPair(p *execProgram, nproc int, tr *tracer, op int64, origFirst, traced bool) execPair {
	var r execPair
	runX := func() {
		var ot *obs.Tracer
		if traced {
			ot = obs.NewTracer()
		}
		runtime.GC() // start every run from the same heap state
		a0 := totalAlloc()
		sp := tr.begin(op, -1, "interp")
		r.run = execute(p.xform, interp.EngineCompiled, nproc, ot)
		tr.end(sp)
		r.alloc = float64(totalAlloc()-a0) / (1 << 20)
		if traced && r.run.err == nil {
			r.counts = countsOf(r.run.it)
			a := eval.AttributeTrace(ot, time.Duration(r.run.ms*1e6), time.Duration(r.orig.ms*1e6), r.run.it.ParkStats())
			r.counts.overheadMS, r.counts.blockedMS, r.counts.signalMS, r.counts.serialMS =
				a.OverheadMS, a.BlockedCritMS, a.SignalWaitMS, a.SerialMS
		}
	}
	runO := func() {
		runtime.GC()
		sp := tr.begin(op, -1, "interp.original")
		r.orig = execute(p.orig, interp.EngineCompiled, nproc, nil)
		tr.end(sp)
	}
	if origFirst {
		runO()
		runX()
	} else {
		runX()
		runO()
	}
	return r
}

func runExec(e *env, build func(int) (*ir.Module, error), hotness float64) (*outcome, error) {
	tr := (*tracer)(nil)
	if e.traced {
		tr = newTracer(false)
	}
	o := newOutcome(tr)
	var p *execProgram
	rep := int64(0)
	setup, err := timeSetup(e, func() error {
		rep++
		var err error
		p, err = setupExec(build, hotness, e.nproc, tr, -rep)
		return err
	})
	if err != nil {
		return nil, err
	}

	// The seed decides, per pair, whether the original or the
	// transformed program runs first.
	rng := rand.New(rand.NewSource(e.seed))
	var (
		runMS, pairSpeedup, allocMB, tracedMS, plainMS []float64
		counts                                         []execCounts
	)
	start := time.Now()
	for i := 0; (len(runMS) < execMinRuns && o.attempted < 4*execMinRuns) || time.Since(start) < e.seconds; i++ {
		// A traced run alternates untraced and traced pairs.
		traced := e.traced && i%2 == 1
		ptr := tr
		if !traced {
			ptr = nil
		}
		origFirst := rng.Intn(2) == 0
		mark := ptr.mark()
		r := measure(e.steal, func() (execPair, bool) {
			ptr.rollback(mark)
			runtime.GC()
			scale := e.speed.sample(1)
			r := runPair(p, e.nproc, ptr, int64(i), origFirst, traced)
			r.run.ms *= scale
			r.orig.ms *= scale
			return r, r.run.check(p.ref) != nil
		})
		o.attempted++
		if err := r.run.check(p.ref); err != nil {
			o.failed++
			o.unexpected++
			fmt.Printf("FAIL transformed run: %v\n", firstLine(err))
			continue
		}
		if err := r.orig.check(p.ref); err != nil {
			return nil, fmt.Errorf("original run disagrees with its walker reference: %w", err)
		}
		runMS = append(runMS, r.run.ms)
		pairSpeedup = append(pairSpeedup, r.orig.ms/r.run.ms)
		allocMB = append(allocMB, r.alloc)
		if traced {
			tracedMS = append(tracedMS, r.run.ms)
			counts = append(counts, r.counts)
		} else {
			plainMS = append(plainMS, r.run.ms)
		}
	}
	if len(runMS) == 0 {
		return nil, fmt.Errorf("every transformed run failed")
	}

	p50, err := percentile(runMS, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(runMS, 0.9)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, ms := range runMS {
		sum += ms
	}
	o.e2e["setup_s"] = setup
	o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.e2e["op_ms_p50"] = p50
	o.e2e["op_ms_tail"] = p90
	o.e2e["alloc_mb"] = median(allocMB)
	o.e2e["speedup"] = median(pairSpeedup)
	o.e2e["ops_per_s"] = float64(len(runMS)) / (sum / 1e3)

	if e.traced {
		scale := e.speed.scale()
		o.tracedLayers(map[string]string{
			"minic": "minic.compile_ms", "core": "core.pdg_ms", "verify": "verify.module_ms",
			"profiler": "profiler.collect_ms", "tool.auto": "tool.auto_ms", "interp.original": "interp.original_ms",
		}, scale)
		o.layer["auto.lowered_frac"] = p.lowered
		med := func(f func(execCounts) float64) float64 {
			xs := make([]float64, len(counts))
			for i, c := range counts {
				xs[i] = f(c)
			}
			return median(xs)
		}
		for name, f := range map[string]func(execCounts) float64{
			"interp.steps":                func(c execCounts) float64 { return c.steps },
			"interp.cycles":               func(c execCounts) float64 { return c.cycles },
			"interp.dispatches":           func(c execCounts) float64 { return c.dispatches },
			"interp.lane_skew":            func(c execCounts) float64 { return c.skew },
			"queue.pushes":                func(c execCounts) float64 { return c.pushes },
			"queue.pops":                  func(c execCounts) float64 { return c.pops },
			"queue.waits":                 func(c execCounts) float64 { return c.waits },
			"queue.fires":                 func(c execCounts) float64 { return c.fires },
			"queue.park_push":             func(c execCounts) float64 { return c.parkPush },
			"queue.park_pop":              func(c execCounts) float64 { return c.parkPop },
			"queue.park_wait":             func(c execCounts) float64 { return c.parkWait },
			"interp.dispatch_overhead_ms": func(c execCounts) float64 { return c.overheadMS * scale },
			"interp.blocked_crit_ms":      func(c execCounts) float64 { return c.blockedMS * scale },
			"interp.signal_wait_ms":       func(c execCounts) float64 { return c.signalMS * scale },
			"interp.serial_ms":            func(c execCounts) float64 { return c.serialMS * scale },
		} {
			o.layer[name] = med(f)
		}
		o.traceOverhead(tracedMS, plainMS)
	}
	return o, nil
}
