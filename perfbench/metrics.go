package main

import (
	"runtime"
	"time"
)

// metricDef names one reported metric. For a per-layer metric, target
// is the end-to-end metric it should move and on which workload, and
// bypass names a workload where the prediction is no change.
type metricDef struct {
	name, unit, better string
	target, bypass     string
}

// e2eMetrics are reported by every untraced run. Each is defined on
// every workload in terms of that workload's operation: one corpus
// program compiled, one run of the transformed program, or one client
// round trip (see README.md).
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
	{name: "op_ms_p50", unit: "ms", better: "lower"},
	{name: "op_ms_tail", unit: "ms", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "speedup", unit: "x", better: "higher"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
}

// workloadNames gives each workload's own names for its end-to-end
// figures, each as the e2eMetrics entry it reads. An untraced run
// prints them, with failed_frac (failed / attempted), on a "named" line
// before the result.
var workloadNames = map[string][][2]string{
	onCorpus:   {{"compile_ms_p50", "op_ms_p50"}, {"compile_ms_p90", "op_ms_tail"}, {"compile_alloc_mb", "alloc_mb"}},
	onDoall:    {{"run_ms_p50", "op_ms_p50"}, {"run_ms_p90", "op_ms_tail"}, {"speedup", "speedup"}},
	onPipeline: {{"run_ms_p50", "op_ms_p50"}, {"run_ms_p90", "op_ms_tail"}, {"speedup", "speedup"}},
	onServe:    {{"serve_ms_p50", "op_ms_p50"}, {"serve_ms_p99", "op_ms_tail"}, {"serve_rps", "ops_per_s"}},
}

const (
	onCorpus   = "corpus-compile"
	onDoall    = "doall-exec"
	onPipeline = "pipeline-exec"
	onServe    = "serve-mix"
	onExec     = "doall-exec, pipeline-exec"
)

// layerMetrics are reported by every traced run; a layer a workload
// does not reach reads 0 there.
var layerMetrics = []metricDef{
	{"minic.compile_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"irtext.roundtrip_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"core.pdg_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"core.pdg_builds", "count", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"verify.module_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"profiler.collect_ms", "ms", "lower", "op_ms_tail on " + onCorpus + "; setup_s on " + onExec, ""},
	{"tool.auto_ms", "ms", "lower", "op_ms_tail on " + onCorpus + "; setup_s on " + onExec, ""},
	{"tool.licm_ms", "ms", "lower", "op_ms_tail on " + onCorpus, ""},
	{"tool.dead_ms", "ms", "lower", "op_ms_tail on " + onCorpus, ""},
	{"auto.lowered_frac", "frac", "higher", "speedup on " + onCorpus + ", " + onExec, ""},
	{"tool.verify_checked", "count", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"tool.instrs_after", "count", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"minic.alloc_mb", "MB", "lower", "alloc_mb on " + onCorpus, ""},
	{"irtext.alloc_mb", "MB", "lower", "alloc_mb on " + onCorpus, ""},
	{"profiler.alloc_mb", "MB", "lower", "alloc_mb on " + onCorpus, ""},
	{"core.alloc_mb", "MB", "lower", "alloc_mb on " + onCorpus, ""},
	{"tool.alloc_mb", "MB", "lower", "alloc_mb on " + onCorpus, ""},
	{"verify.alloc_mb", "MB", "lower", "alloc_mb on " + onCorpus, ""},
	{"interp.original_ms", "ms", "lower", "speedup on " + onExec + ", " + onCorpus, ""},
	{"interp.steps", "count", "lower", "op_ms_p50 on " + onDoall, ""},
	{"interp.cycles", "count", "lower", "op_ms_p50 on " + onDoall, ""},
	{"interp.dispatches", "count", "lower", "op_ms_p50 on " + onDoall, ""},
	{"interp.lane_skew", "ratio", "lower", "op_ms_p50 on " + onDoall, ""},
	{"interp.dispatch_overhead_ms", "ms", "lower", "op_ms_p50 on " + onExec, ""},
	{"interp.blocked_crit_ms", "ms", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"interp.signal_wait_ms", "ms", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"interp.serial_ms", "ms", "lower", "op_ms_p50 on " + onExec, ""},
	{"queue.pushes", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"queue.pops", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"queue.waits", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"queue.fires", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"queue.park_push", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"queue.park_pop", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"queue.park_wait", "count", "lower", "op_ms_p50 on " + onPipeline, onDoall},
	{"serve.ro_ms_p50", "ms", "lower", "op_ms_p50 on " + onServe, ""},
	{"serve.tx_ms_p50", "ms", "lower", "op_ms_p50 on " + onServe, ""},
	{"serve.auto_ms_p50", "ms", "lower", "op_ms_p50 on " + onServe, ""},
	{"serve.session_hit_ratio", "frac", "higher", "op_ms_p50 on " + onServe, ""},
	{"serve.coalesced_frac", "frac", "higher", "op_ms_p50 on " + onServe, ""},
	{"serve.evictions", "count", "lower", "op_ms_p50 on " + onServe, ""},
	{"serve.queue_wait_ms", "ms", "lower", "op_ms_tail, ops_per_s on " + onServe, ""},
	{"abscache.hit_ratio", "frac", "higher", "serve.tx_ms_p50 on " + onServe, ""},
	{"minic.self_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"irtext.self_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"profiler.self_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"core.self_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"tool.self_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"verify.self_ms", "ms", "lower", "op_ms_p50 on " + onCorpus, ""},
	{"interp.self_ms", "ms", "lower", "op_ms_p50 on " + onExec, ""},
	{"serve.self_ms", "ms", "lower", "op_ms_p50 on " + onServe, ""},
	{"trace.overhead_ms", "ms", "lower", "none: traced minus untraced operation time", ""},
	{"trace.overhead_frac", "frac", "lower", "none: traced over untraced operation time, minus one", ""},
}

// selfLayers maps span names to the layer whose self time they add to.
var selfLayers = map[string]string{
	"minic": "minic", "irtext": "irtext", "profiler": "profiler", "core": "core",
	"tool": "tool", "tool.licm": "tool", "tool.dead": "tool", "tool.auto": "tool",
	"verify": "verify", "interp": "interp", "interp.original": "interp",
	"serve": "serve",
}

// timeSetup runs fn setupReps times and returns the median duration in
// seconds; the state the last call leaves behind is what the run uses.
// A repetition the host stole CPU from is repeated (see measure).
func timeSetup(e *env, fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		var err error
		secs = append(secs, measure(e.steal, func() (float64, bool) {
			runtime.GC()
			scale := e.speed.sample(1)
			start := time.Now()
			err = fn()
			return time.Since(start).Seconds() * scale, err != nil
		}))
		if err != nil {
			return 0, err
		}
	}
	return median(secs), nil
}

// tracedLayers fills the per-layer metrics a traced run derives from
// its spans: per-operation medians of the named spans' time, the
// allocation of each compile-side layer, and each layer's self time per
// traced operation, with times converted to the nominal host by scale.
// Every layer metric not set here or by the workload reads 0.
func (o *outcome) tracedLayers(spanMetric map[string]string, scale float64) {
	for _, d := range layerMetrics {
		o.layer[d.name] = 0
	}
	for spanName, metric := range spanMetric {
		ms, _ := o.tr.perOp(spanName)
		o.layer[metric] = median(ms) * scale
	}
	for _, layer := range []string{"minic", "irtext", "profiler", "core", "tool", "verify"} {
		_, mb := o.tr.perOp(layer)
		o.layer[layer+".alloc_mb"] = median(mb)
	}
	ops := map[int64]bool{}
	self := map[string]float64{}
	for name, ns := range selfTimes(o.tr.spans) {
		if layer, ok := selfLayers[name]; ok {
			self[layer] += float64(ns)
		}
	}
	for _, s := range o.tr.spans {
		ops[s.Op] = true
	}
	for layer, ns := range self {
		o.layer[layer+".self_ms"] = ns / 1e6 / float64(len(ops)) * scale
	}
}

// traceOverhead reports the traced operations' median time over the
// untraced ones' from the same run.
func (o *outcome) traceOverhead(traced, plain []float64) {
	t, p := median(traced), median(plain)
	o.layer["trace.overhead_ms"] = t - p
	o.layer["trace.overhead_frac"] = ratio(t, p) - 1
}
