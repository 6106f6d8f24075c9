package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one benchmark operation share Op; Parent links a span to the
// span whose call caused it (-1 for an operation's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	AllocB uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// is the untraced mode: every method is a no-op, so the timed paths of
// an untraced run carry only a nil check.
type tracer struct {
	epoch time.Time
	// allocs makes begin/end sample runtime.MemStats.TotalAlloc, giving
	// each span the bytes allocated while it was open. Only meaningful
	// when one goroutine drives the layers.
	allocs bool

	mu    sync.Mutex
	spans []span
	alloc []uint64 // TotalAlloc at begin, by span ID
}

func newTracer(allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	var a uint64
	if t.allocs {
		a = totalAlloc()
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.alloc = append(t.alloc, a)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	var a uint64
	if t.allocs {
		a = totalAlloc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	if t.allocs {
		t.spans[id].AllocB = a - t.alloc[id]
	}
}

// add records a span whose bounds were observed elsewhere (a pipeline
// stage delimited by report-emit timestamps).
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.alloc = append(t.alloc, 0)
}

// mark returns a position rollback can return to.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// rollback drops every span recorded since mark: the spans of an
// operation that is being measured again.
func (t *tracer) rollback(mark int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.alloc = t.spans[:mark], t.alloc[:mark]
}

// perOp sums the duration (ms) and allocation (MB) of the spans named
// name within each operation, in operation order.
func (t *tracer) perOp(name string) (ms, mb []float64) {
	type acc struct{ ns, b float64 }
	byOp := map[int64]*acc{}
	var ops []int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		a := byOp[s.Op]
		if a == nil {
			a = &acc{}
			byOp[s.Op] = a
			ops = append(ops, s.Op)
		}
		a.ns += float64(s.dur())
		a.b += float64(s.AllocB)
	}
	for _, op := range ops {
		ms = append(ms, byOp[op].ns/1e6)
		mb = append(mb, byOp[op].b/(1<<20))
	}
	return ms, mb
}

// selfTimes returns each span name's total self time in ns: a span's
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals, clipped to
// the parent's, so overlapping children are not counted twice.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the run description, its result and every span as JSON.
func (t *tracer) write(path string, info runInfo, res *result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"run": info, "result": res, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
