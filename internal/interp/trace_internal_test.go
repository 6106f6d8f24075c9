package interp

import (
	"testing"

	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/obs"
)

// mustParse is the white-box twin of the black-box suite's parse helper
// (test packages cannot share helpers across the package boundary).
func mustParse(t testing.TB, src string) *Interp {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(m)
}

const traceProbeSrc = `module "m"
declare @noelle_queue_create : fn(i64) i64
declare @noelle_queue_push : fn(i64, i64) void
declare @noelle_queue_pop : fn(i64) i64
func @main() i64 {
entry:
  ret 0
}`

// TestTracingOffExternsAllocFree pins the overhead contract of the
// instrumented communication externs: with no Tracer attached, a
// push/pop round trip performs zero allocations — the tracing hook is
// one nil pointer check, nothing more. A regression here (a closure
// capture, an interface conversion, a clock read that escapes) shows up
// as a fractional alloc count and fails the test.
func TestTracingOffExternsAllocFree(t *testing.T) {
	it := mustParse(t, traceProbeSrc)
	qid := it.img.comm.CreateQueue(16)
	push, _, ok := it.img.lookupExtern(ExternQueuePush)
	if !ok {
		t.Fatal("push extern not registered")
	}
	pop, _, ok := it.img.lookupExtern(ExternQueuePop)
	if !ok {
		t.Fatal("pop extern not registered")
	}
	pushArgs := []uint64{uint64(qid), 7}
	popArgs := []uint64{uint64(qid)}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := push(it, pushArgs); err != nil {
			t.Fatal(err)
		}
		if _, err := pop(it, popArgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("tracing-off push+pop allocates %.2f objects per op, want 0", allocs)
	}
}

// compiledLoopSrc is a compiled loop of %n push/pop round trips through
// the communication externs: the compiled tier's extern call site in its
// hottest shape (a DSWP stage's loop body).
const compiledLoopSrc = `module "m"
declare @noelle_queue_push : fn(i64, i64) void
declare @noelle_queue_pop : fn(i64) i64
func @loop(%q: i64, %n: i64) i64 {
entry:
  br head
head:
  %i = phi i64 [ 0, entry ], [ %inext, body ]
  %s = phi i64 [ 0, entry ], [ %snext, body ]
  %c = lt %i, %n
  condbr %c, body, exit
body:
  call void @noelle_queue_push(%q, %i)
  %v = call i64 @noelle_queue_pop(%q)
  %snext = add %s, %v
  %inext = add %i, 1
  br head
exit:
  ret %s
}`

// compiledLoop prepares compiledLoopSrc on the compiled tier with one
// queue, returning the context, the loop function and the queue handle.
func compiledLoop(t testing.TB) (*Interp, *ir.Function, uint64) {
	t.Helper()
	it := mustParse(t, compiledLoopSrc)
	it.Eng = EngineCompiled
	loop := it.Mod.FunctionByName("loop")
	if it.img.compiled(loop, it.Cost) == nil {
		t.Fatal("@loop did not compile")
	}
	return it, loop, uint64(it.img.comm.CreateQueue(16))
}

// TestCompiledExternCallsAllocFree pins the compiled call site itself: a
// compiled loop of N push/pop extern calls allocates as much as a loop of
// a few (the frame, once per Call), so each extern call evaluates its
// arguments into the frame's argument window and reaches its registry
// entry without allocating.
func TestCompiledExternCallsAllocFree(t *testing.T) {
	it, loop, q := compiledLoop(t)
	allocs := func(n uint64) float64 {
		args := []uint64{q, n}
		want := n * (n - 1) / 2
		return testing.AllocsPerRun(20, func() {
			if r, err := it.Call(loop, args); err != nil || r != want {
				t.Fatalf("loop(%d) = %d, %v; want %d", n, r, err, want)
			}
		})
	}
	const small, large = 4, 4096
	few, many := allocs(small), allocs(large)
	if perCall := (many - few) / (2 * (large - small)); many != few {
		t.Errorf("compiled extern calls allocate: %.0f objects for %d round trips, %.0f for %d (%.4f per call), want no growth",
			many, large, few, small, perCall)
	}
}

// BenchmarkQueueExterns measures the per-operation cost of a queue
// push/pop round trip through the extern layer with tracing off and on,
// and from a compiled loop's call sites. The off case is the host-side
// fast path; the on case quantifies the tracing tax — clock reads plus
// histogram updates, roughly two time.Now calls per op — which only
// traced runs pay; the compiled case adds what a compiled call op costs
// around the extern (argument window, bound registry slot, Steps and
// Cycles accounting), which is what a DSWP stage pays per value.
func BenchmarkQueueExterns(b *testing.B) {
	b.Run("compiled", func(b *testing.B) {
		it, loop, q := compiledLoop(b)
		args := []uint64{q, uint64(b.N)}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := it.Call(loop, args); err != nil {
			b.Fatal(err)
		}
	})
	for _, traced := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(traced.name, func(b *testing.B) {
			it := mustParse(b, traceProbeSrc)
			if traced.on {
				it.Tracer = obs.NewTracer()
				it.initRecorder()
			}
			qid := it.img.comm.CreateQueue(16)
			push, _, _ := it.img.lookupExtern(ExternQueuePush)
			pop, _, _ := it.img.lookupExtern(ExternQueuePop)
			pushArgs := []uint64{uint64(qid), 7}
			popArgs := []uint64{uint64(qid)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := push(it, pushArgs); err != nil {
					b.Fatal(err)
				}
				if _, err := pop(it, popArgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
