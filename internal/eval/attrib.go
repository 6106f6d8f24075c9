package eval

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/obs"
	"noelle/internal/queue"
)

// Attribution decomposes where a parallel run's wall-clock went,
// answering the question the speedup columns raise: when a modeled 2-4x
// collapses to ~1x measured, which runtime cost ate the difference?
//
// The decomposition is an exact identity over the traced run:
//
//	traced_par = serial + run_crit + blocked_crit + overhead
//
// where, per dispatch, the critical lane is the busiest one (the lane
// the barrier waits for): run_crit is its non-communication execution
// time, blocked_crit its time inside queue/signal operations (parking
// plus operation cost), and overhead the dispatch lifetime not covered
// by the critical lane (forking contexts, goroutine startup, the
// barrier, absorb). serial is everything outside dispatches.
//
// The gap then compares the traced run against the ideal parallel time
// at the concurrency the runtime actually achieved (seq / eff_lanes; on
// a single-core host eff_lanes is 1 and the ideal is the sequential
// time itself). Everything except run_crit is parallelization tax, and
// the traced run additionally pays the tracer's own per-operation cost,
// estimated by calibration and reported as trace_overhead_est_ms:
//
//	attributed = blocked_crit + overhead + trace_overhead_est
//	frac       = attributed / gap
//
// A frac near 1 means the blocked/overhead columns fully explain why
// measured speedup fell short of the ideal; the remainder is load
// imbalance (run_crit beyond seq/eff_lanes) and measurement noise.
type Attribution struct {
	// Engine is the execution tier the traced run used. Tracing does not
	// hook the interpreter, so the compiled tier stays selectable here;
	// only the hook-based attribution paths force the walker.
	Engine      string  `json:"engine,omitempty"`
	TracedParMS float64 `json:"traced_par_ms"`
	SeqMS       float64 `json:"seq_ms"`
	// EffLanes is the maximum number of lanes that executed tasks
	// concurrently in any dispatch (bounded by GOMAXPROCS and the
	// dispatch-worker cap, not the fan-out).
	EffLanes int     `json:"eff_lanes"`
	GapMS    float64 `json:"gap_ms"`

	SerialMS      float64 `json:"serial_ms"`
	RunCritMS     float64 `json:"run_crit_ms"`
	BlockedCritMS float64 `json:"blocked_crit_ms"`
	OverheadMS    float64 `json:"dispatch_overhead_ms"`
	TraceTaxMS    float64 `json:"trace_overhead_est_ms"`

	AttributedMS   float64 `json:"attributed_ms"`
	AttributedFrac float64 `json:"attributed_frac"`

	// BlockedMS totals communication-operation time across every lane
	// (not just critical ones); QueueBlockP95MS / SignalWaitMS summarize
	// the pooled operation histograms; the Park* fields count only time
	// actually parked on a cond var (queue.ParkStats).
	BlockedMS       float64 `json:"blocked_ms"`
	QueueBlockP95MS float64 `json:"queue_block_p95_ms"`
	SignalWaitMS    float64 `json:"signal_wait_ms"`
	ParkPushMS      float64 `json:"park_push_ms"`
	ParkPopMS       float64 `json:"park_pop_ms"`
	ParkWaitMS      float64 `json:"park_wait_ms"`

	// Lanes is the per-lane utilization breakdown; Stages additionally
	// splits lane time by worker index (present only when the run's
	// distinct worker indices are few — DSWP stages, not HELIX's 64k
	// iteration workers).
	Lanes  []LaneBreakdown  `json:"lanes,omitempty"`
	Stages []StageBreakdown `json:"stages,omitempty"`
}

// LaneBreakdown is one dispatch lane's blocked-vs-running split.
type LaneBreakdown struct {
	Dispatch  int     `json:"dispatch"`
	Lane      int     `json:"lane"`
	Label     string  `json:"label"`
	BusyMS    float64 `json:"busy_ms"`
	BlockedMS float64 `json:"blocked_ms"`
	UtilPct   float64 `json:"util_pct"`
}

// StageBreakdown aggregates task spans by worker index: for a DSWP
// pipeline the worker index is the stage, so this is the per-stage
// utilization the execution study reports. BlockedMS counts only kept
// timeline spans (ops at least SpanThreshold long) nested inside the
// stage's task spans, so it reflects genuine stalls, not op cost.
type StageBreakdown struct {
	Worker    int64   `json:"worker"`
	BusyMS    float64 `json:"busy_ms"`
	BlockedMS float64 `json:"blocked_ms"`
	UtilPct   float64 `json:"util_pct"`
}

// maxStageRows bounds the per-stage table: a HELIX run has one worker
// index per iteration, which is a timeline concern, not a table.
const maxStageRows = 32

var (
	traceTaxOnce sync.Once
	traceTaxNS   float64
)

// traceTaxPerOp estimates the tracer's cost per communication operation
// (one Clock read + one Record) by running the exact production sequence
// against a throwaway recorder. Calibrated once per process.
func traceTaxPerOp() float64 {
	traceTaxOnce.Do(func() {
		tr := obs.NewTracer()
		rec := tr.NewRecorder(0, 0, "calibration")
		const iters = 50000
		start := time.Now()
		for i := 0; i < iters; i++ {
			rec.Record(obs.SpanQueuePush, 0, rec.Clock())
		}
		traceTaxNS = float64(time.Since(start).Nanoseconds()) / iters
	})
	return traceTaxNS
}

func msOf(ns float64) float64 { return ns / 1e6 }

// commKinds are the span kinds that count as communication (blocking)
// time on a lane.
var commKinds = [...]obs.SpanKind{obs.SpanQueuePush, obs.SpanQueuePop, obs.SpanSignalWait}

// AttributeTrace computes the attribution of one traced parallel run
// against the untraced sequential wall time of the same module.
func AttributeTrace(tr *obs.Tracer, tracedPar, seqWall time.Duration, parks queue.ParkStats) *Attribution {
	a := &Attribution{
		TracedParMS: msOf(float64(tracedPar.Nanoseconds())),
		SeqMS:       msOf(float64(seqWall.Nanoseconds())),
		ParkPushMS:  msOf(float64(parks.PushParkNS)),
		ParkPopMS:   msOf(float64(parks.PopParkNS)),
		ParkWaitMS:  msOf(float64(parks.WaitParkNS)),
	}

	recs := tr.Recorders()
	byGroup := map[int][]*obs.Recorder{}
	var commOps int64
	var queueHist obs.Hist
	for _, r := range recs {
		if r.Worker >= 0 {
			byGroup[r.Group] = append(byGroup[r.Group], r)
		}
		for _, k := range commKinds {
			h := r.Agg(k)
			commOps += h.Count
			a.BlockedMS += msOf(float64(h.TotalNS))
			if k == obs.SpanSignalWait {
				a.SignalWaitMS += msOf(float64(h.TotalNS))
			} else {
				queueHist.Merge(&h)
			}
		}
	}
	a.QueueBlockP95MS = msOf(float64(queueHist.Quantile(0.95)))

	var dispTotalNS float64
	for seq, ds := range tr.DispatchSpans() {
		lanes := byGroup[int(seq)]
		dur := float64(ds.Dur)
		dispTotalNS += dur
		var critBusy, critBlock float64
		active := 0
		for _, r := range lanes {
			busy := float64(r.Agg(obs.SpanTask).TotalNS)
			if busy <= 0 {
				continue
			}
			active++
			var block float64
			for _, k := range commKinds {
				block += float64(r.Agg(k).TotalNS)
			}
			if block > busy {
				block = busy // nested-dispatch double counting guard
			}
			if busy > critBusy {
				critBusy, critBlock = busy, block
			}
		}
		if active > a.EffLanes {
			a.EffLanes = active
		}
		if critBusy > dur {
			critBusy = dur // clock-skew clamp
		}
		a.RunCritMS += msOf(critBusy - critBlock)
		a.BlockedCritMS += msOf(critBlock)
		a.OverheadMS += msOf(dur - critBusy)
	}
	// The machine cannot run more lanes than GOMAXPROCS at once: the
	// ideal this host could reach is seq / min(lanes, GOMAXPROCS), so a
	// single-core container compares against the sequential time itself
	// even when four goroutine lanes were resident.
	if procs := runtime.GOMAXPROCS(0); a.EffLanes > procs {
		a.EffLanes = procs
	}
	if a.EffLanes < 1 {
		a.EffLanes = 1
	}
	if serial := msOf(float64(tracedPar.Nanoseconds()) - dispTotalNS); serial > 0 {
		a.SerialMS = serial
	}
	a.TraceTaxMS = msOf(traceTaxPerOp() * float64(commOps))

	a.GapMS = a.TracedParMS - a.SeqMS/float64(a.EffLanes)
	a.AttributedMS = a.BlockedCritMS + a.OverheadMS + a.TraceTaxMS
	if a.GapMS > 0 {
		a.AttributedFrac = a.AttributedMS / a.GapMS
		if a.AttributedFrac > 1 {
			a.AttributedFrac = 1 // tax estimate can overshoot a small gap
		}
	} else {
		// The traced run beat the ideal: nothing to explain.
		a.AttributedFrac = 1
	}

	a.Lanes = laneBreakdowns(recs)
	a.Stages = stageBreakdowns(recs)
	return a
}

func laneBreakdowns(recs []*obs.Recorder) []LaneBreakdown {
	var out []LaneBreakdown
	for _, r := range recs {
		busy := float64(r.Agg(obs.SpanTask).TotalNS)
		if r.Worker < 0 || busy <= 0 {
			continue
		}
		var block float64
		for _, k := range commKinds {
			block += float64(r.Agg(k).TotalNS)
		}
		if block > busy {
			block = busy
		}
		out = append(out, LaneBreakdown{
			Dispatch: r.Group, Lane: r.Worker, Label: r.Label,
			BusyMS:    msOf(busy),
			BlockedMS: msOf(block),
			UtilPct:   100 * (busy - block) / busy,
		})
	}
	return out
}

// stageBreakdowns rebuilds the per-worker split from kept timeline
// spans: each task span's duration accrues to its worker index, and a
// kept communication span accrues to the task span whose interval
// contains it (spans are lane-local, so containment is unambiguous).
func stageBreakdowns(recs []*obs.Recorder) []StageBreakdown {
	busy := map[int64]float64{}
	blocked := map[int64]float64{}
	for _, r := range recs {
		var tasks []obs.Span
		for _, s := range r.Spans() {
			if s.Kind == obs.SpanTask {
				tasks = append(tasks, s)
				busy[s.Arg] += float64(s.Dur)
				if len(busy) > maxStageRows {
					return nil
				}
			}
		}
		if len(tasks) == 0 {
			continue
		}
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].Start < tasks[j].Start })
		for _, s := range r.Spans() {
			switch s.Kind {
			case obs.SpanQueuePush, obs.SpanQueuePop, obs.SpanSignalWait:
				// Rightmost task starting at or before the op start; ops
				// outside any task (sequential-context comm) stay unassigned.
				i := sort.Search(len(tasks), func(i int) bool { return tasks[i].Start > s.Start }) - 1
				if i >= 0 && s.Start < tasks[i].Start+tasks[i].Dur {
					blocked[tasks[i].Arg] += float64(s.Dur)
				}
			}
		}
	}
	workers := make([]int64, 0, len(busy))
	for w := range busy {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	out := make([]StageBreakdown, 0, len(workers))
	for _, w := range workers {
		b := busy[w]
		out = append(out, StageBreakdown{
			Worker: w, BusyMS: msOf(b), BlockedMS: msOf(blocked[w]),
			UtilPct: 100 * (b - blocked[w]) / b,
		})
	}
	return out
}

// attributionRun executes one traced parallel run of a transformed
// module and attributes its wall-clock against seqWall. It is a separate
// run on purpose: the timing legs stay untraced, so the tracer's tax
// never touches the reported speedups.
func attributionRun(m *ir.Module, dispatchCap int, seqWall time.Duration, engine interp.Engine) (*Attribution, *obs.Tracer, error) {
	tr := obs.NewTracer()
	it := interp.New(m)
	it.DispatchWorkers = dispatchCap
	it.Eng = engine
	it.Tracer = tr
	start := time.Now()
	if _, err := it.Run(); err != nil {
		return nil, nil, fmt.Errorf("attribution run: %w", err)
	}
	d := time.Since(start)
	a := AttributeTrace(tr, d, seqWall, it.ParkStats())
	a.Engine = string(it.Engine())
	return a, tr, nil
}

// FormatAttribution renders the decomposition as indented detail lines
// for the execution study.
func FormatAttribution(a *Attribution) string {
	if a == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "    where did the time go: traced par %.0fms vs ideal %.0fms (seq/%d lanes) -> gap %.0fms\n",
		a.TracedParMS, a.SeqMS/float64(a.EffLanes), a.EffLanes, a.GapMS)
	fmt.Fprintf(&b, "      blocked(crit) %.0fms + dispatch overhead %.0fms + trace tax ~%.0fms = %.0f%% of the gap attributed\n",
		a.BlockedCritMS, a.OverheadMS, a.TraceTaxMS, 100*a.AttributedFrac)
	fmt.Fprintf(&b, "      comm time %.0fms total (queue-op p95 %.3fms, signal waits %.0fms; parked: push %.0fms, pop %.0fms, wait %.0fms)\n",
		a.BlockedMS, a.QueueBlockP95MS, a.SignalWaitMS, a.ParkPushMS, a.ParkPopMS, a.ParkWaitMS)
	for _, st := range a.Stages {
		fmt.Fprintf(&b, "      stage w%d: busy %.0fms, blocked %.0fms (%.0f%% running)\n",
			st.Worker, st.BusyMS, st.BlockedMS, st.UtilPct)
	}
	return strings.TrimRight(b.String(), "\n")
}
