package interp

import (
	"fmt"
	"math"

	"noelle/internal/obs"
)

// Extern function names understood by the interpreter. Benchmarks declare
// the print externs; custom tools inject the runtime hooks.
const (
	ExternPrintI64 = "print_i64"
	ExternPrintF64 = "print_f64"
	// ExternGuard is CARAT's runtime address check: guard(ptr) validates
	// that ptr points into a live allocation.
	ExternGuard = "carat_guard"
	// ExternCallback is COOS's injected OS-routine call.
	ExternCallback = "os_callback"
	// ExternClockSet is Time-Squeezer's clock-period change instruction.
	ExternClockSet = "clock_set"
	// ExternDispatch is the parallel runtime's task dispatcher:
	// dispatch(task, env, nworkers) runs task(env, w, nworkers) for every
	// worker w. Workers execute concurrently over forked execution
	// contexts that share the module's memory image (see parallel.go);
	// Interp.SeqDispatch falls back to sequential worker-order execution.
	ExternDispatch = "noelle_dispatch"

	// Communication runtime externs (backed by internal/queue): bounded
	// SPSC queues carry cross-stage values between DSWP pipeline stages,
	// ticket signals order HELIX sequential segments across iterations.
	// Handles are allocated on the shared image, so every worker context
	// of a dispatch sees the same queues; operations issued by parallel
	// workers block (backpressure / ticket order), operations issued
	// sequentially never block — pushes grow the queue, and a pop or wait
	// that would park is a deterministic error instead of a deadlock.
	ExternQueueCreate  = "noelle_queue_create"  // create(capacity) -> qid
	ExternQueuePush    = "noelle_queue_push"    // push(qid, value)
	ExternQueuePop     = "noelle_queue_pop"     // pop(qid) -> value
	ExternQueueClose   = "noelle_queue_close"   // close(qid)
	ExternSignalCreate = "noelle_signal_create" // create(start) -> sid
	ExternSignalWait   = "noelle_signal_wait"   // wait(sid, ticket)
	ExternSignalFire   = "noelle_signal_fire"   // fire(sid, ticket)
)

// defaultExternArities is the single source of truth for the argument
// counts of the runtime's default externs. registerDefaultExterns
// enforces them dynamically (a wrong-arity call errors instead of
// indexing out of range); ExternArities exports them so the static
// verifier (internal/verify) can reject a wrong-arity call site before
// a single instruction executes.
var defaultExternArities = map[string]int{
	ExternPrintI64:     1,
	ExternPrintF64:     1,
	ExternGuard:        1,
	ExternCallback:     0,
	ExternClockSet:     1,
	ExternDispatch:     3,
	ExternQueueCreate:  1,
	ExternQueuePush:    2,
	ExternQueuePop:     1,
	ExternQueueClose:   1,
	ExternSignalCreate: 1,
	ExternSignalWait:   2,
	ExternSignalFire:   2,
}

// ExternArities returns the registered argument count of every default
// runtime extern, keyed by name. The map is a fresh copy; callers may
// mutate it.
func ExternArities() map[string]int {
	out := make(map[string]int, len(defaultExternArities))
	for name, a := range defaultExternArities {
		out[name] = a
	}
	return out
}

// Default externs are registered with their exact arity: a malformed
// module that declares (and calls) one of them with the wrong signature
// gets an error instead of an index-out-of-range panic in the host body.
func registerDefaultExterns(it *Interp) {
	it.RegisterExternArity(ExternPrintI64, defaultExternArities[ExternPrintI64], func(it *Interp, args []uint64) (uint64, error) {
		fmt.Fprintf(&it.Output, "%d\n", int64(args[0]))
		return 0, nil
	})
	it.RegisterExternArity(ExternPrintF64, defaultExternArities[ExternPrintF64], func(it *Interp, args []uint64) (uint64, error) {
		fmt.Fprintf(&it.Output, "%g\n", math.Float64frombits(args[0]))
		return 0, nil
	})
	it.RegisterExternArity(ExternGuard, defaultExternArities[ExternGuard], func(it *Interp, args []uint64) (uint64, error) {
		it.GuardCalls++
		if !it.ValidAddress(int64(args[0])) {
			it.GuardFailures++
		}
		return 0, nil
	})
	it.RegisterExternArity(ExternCallback, defaultExternArities[ExternCallback], func(it *Interp, args []uint64) (uint64, error) {
		it.Callbacks++
		return 0, nil
	})
	it.RegisterExternArity(ExternClockSet, defaultExternArities[ExternClockSet], func(it *Interp, args []uint64) (uint64, error) {
		it.ClockSets++
		return 0, nil
	})
	it.RegisterExternArity(ExternDispatch, defaultExternArities[ExternDispatch], func(it *Interp, args []uint64) (uint64, error) {
		return it.dispatch(args)
	})
	it.RegisterExternArity(ExternQueueCreate, defaultExternArities[ExternQueueCreate], func(it *Interp, args []uint64) (uint64, error) {
		capacity := int(int64(args[0]))
		if it.QueueCap > 0 {
			capacity = it.QueueCap // runtime override (noelle-bin -queue-cap)
		}
		return uint64(it.img.comm.CreateQueue(capacity)), nil
	})
	it.RegisterExternArity(ExternQueuePush, defaultExternArities[ExternQueuePush], func(it *Interp, args []uint64) (uint64, error) {
		it.QueuePushes++
		// Tracing fast path: rec is nil unless a Tracer is attached, so
		// the untraced cost is one pointer comparison — no clock reads,
		// no allocations, no atomics (proved by BenchmarkQueueExterns and
		// TestTracingOffExternsAllocFree). Spans time the
		// whole operation: for a parked producer that is exactly the
		// backpressure stall the timeline should show.
		if r := it.rec; r != nil {
			start := r.Clock()
			err := it.img.comm.Push(int64(args[0]), args[1], it.pushBlocks)
			r.Record(obs.SpanQueuePush, int64(args[0]), start)
			return 0, err
		}
		return 0, it.img.comm.Push(int64(args[0]), args[1], it.pushBlocks)
	})
	it.RegisterExternArity(ExternQueuePop, defaultExternArities[ExternQueuePop], func(it *Interp, args []uint64) (uint64, error) {
		it.QueuePops++
		if r := it.rec; r != nil {
			start := r.Clock()
			v, err := it.img.comm.Pop(int64(args[0]), it.parWorker)
			r.Record(obs.SpanQueuePop, int64(args[0]), start)
			return v, err
		}
		return it.img.comm.Pop(int64(args[0]), it.parWorker)
	})
	it.RegisterExternArity(ExternQueueClose, defaultExternArities[ExternQueueClose], func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.img.comm.Close(int64(args[0]))
	})
	it.RegisterExternArity(ExternSignalCreate, defaultExternArities[ExternSignalCreate], func(it *Interp, args []uint64) (uint64, error) {
		return uint64(it.img.comm.CreateSignal(int64(args[0]))), nil
	})
	it.RegisterExternArity(ExternSignalWait, defaultExternArities[ExternSignalWait], func(it *Interp, args []uint64) (uint64, error) {
		it.SignalWaits++
		if r := it.rec; r != nil {
			start := r.Clock()
			err := it.img.comm.Wait(int64(args[0]), int64(args[1]), it.parWorker)
			r.Record(obs.SpanSignalWait, int64(args[0]), start)
			return 0, err
		}
		return 0, it.img.comm.Wait(int64(args[0]), int64(args[1]), it.parWorker)
	})
	it.RegisterExternArity(ExternSignalFire, defaultExternArities[ExternSignalFire], func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.img.comm.Fire(int64(args[0]), int64(args[1]))
	})
}
