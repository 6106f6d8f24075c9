// Package queue is the inter-worker communication runtime behind NOELLE's
// parallelization tools (paper Section 3): bounded single-producer
// single-consumer queues carry cross-stage values between DSWP pipeline
// stages, and ticket signals order HELIX sequential segments across
// iterations. One Runtime is attached to each interpreter image; the
// transformed IR reaches it through the noelle_queue_* / noelle_signal_*
// externs (internal/interp registers them), addressing queues and signals
// by the integer handles returned at creation time.
//
// Blocking discipline: operations issued by parallel dispatch workers
// block (a full queue exerts backpressure on its producer, an empty one
// parks its consumer, a signal parks a worker until its ticket comes up).
// Operations issued by a sequential execution context must never block —
// the sequential fallback runs workers to completion one after another,
// so a blocked operation would deadlock the whole run. Sequentially,
// pushes beyond capacity grow the buffer instead, and a pop or wait that
// would block is a deterministic error (the module is malformed: its
// communication pattern cannot replay in worker order).
//
// Teardown is deterministic: Abort wakes every blocked operation with
// ErrAborted, so when one dispatch worker fails the rest cannot stay
// parked forever; closing a queue releases consumers blocked on it with
// ErrClosed once drained.
package queue

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAborted is returned by every operation after the runtime is torn
// down (a dispatch worker failed and the dispatcher aborted its tree).
var ErrAborted = errors.New("queue: runtime aborted")

// ErrClosed is returned by pushes to a closed queue and by pops of a
// closed queue that has been fully drained.
var ErrClosed = errors.New("queue: closed")

// DefaultCapacity bounds a queue when its creator passes no (or a
// non-positive) capacity.
const DefaultCapacity = 256

// Runtime owns every queue and signal of one execution image. Handles are
// indices into the creation-ordered tables; creation from a single
// context (the transformed pre-headers run in the dispatching context)
// is therefore deterministic.
//
// The hot operations (push, pop, wait, fire) write no Runtime state: the
// handle tables are append-only snapshots behind atomic pointers, the
// abort check is one atomic load, and every operation and park counter
// lives on its queue or signal, under the lock the operation already
// holds. A producer and a consumer therefore share only the cache lines
// of the queue they communicate through.
type Runtime struct {
	// mu serializes the writers of the snapshots below: creation and
	// Abort. Readers never take it.
	mu      sync.Mutex
	queues  atomic.Pointer[[]*Queue]
	signals atomic.Pointer[[]*Signal]
	// aborted holds the teardown error (nil while healthy).
	aborted atomic.Pointer[error]
}

// ParkStats is the runtime's cumulative blocking profile: counts of
// operations that parked on a cond var and the total nanoseconds they
// spent parked, split by operation kind.
type ParkStats struct {
	PushParks, PushParkNS int64
	PopParks, PopParkNS   int64
	WaitParks, WaitParkNS int64
}

// ParkStats returns the cumulative blocking profile, summed over every
// queue and signal. The clock is read only on the parking path, so the
// profile costs nothing for operations that never park.
func (rt *Runtime) ParkStats() ParkStats {
	var ps ParkStats
	for _, q := range snapshot(&rt.queues) {
		q.mu.Lock()
		ps.PushParks += q.pushParks
		ps.PushParkNS += q.pushParkNS
		ps.PopParks += q.popParks
		ps.PopParkNS += q.popParkNS
		q.mu.Unlock()
	}
	for _, s := range snapshot(&rt.signals) {
		s.mu.Lock()
		ps.WaitParks += s.waitParks
		ps.WaitParkNS += s.waitParkNS
		s.mu.Unlock()
	}
	return ps
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime { return &Runtime{} }

// Queue is a bounded FIFO of raw 8-byte values. The parallelizers
// generate single-producer single-consumer usage (one pipeline stage
// pushes, the next pops), but the implementation is safe for any number
// of concurrent users.
type Queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []uint64 // ring buffer
	head     int
	n        int
	cap      int // backpressure bound for blocking pushes
	closed   bool
	// depthMax records the high-water mark (observability only).
	depthMax int

	// Operation and park counters, guarded by mu (see Runtime.Stats and
	// Runtime.ParkStats).
	pushes, pops          int64
	pushParks, pushParkNS int64
	popParks, popParkNS   int64
}

// Signal is a monotonic ticket counter: Wait(t) parks until the counter
// reaches t, Fire(t) advances it to at least t. HELIX guards each
// sequential segment with one signal whose tickets are iteration indices.
type Signal struct {
	mu      sync.Mutex
	reached *sync.Cond
	counter int64

	// Operation and park counters, guarded by mu.
	waits, fires          int64
	waitParks, waitParkNS int64
}

// CreateQueue allocates a queue bounded at capacity (non-positive means
// DefaultCapacity) and returns its handle.
func (rt *Runtime) CreateQueue(capacity int) int64 {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	q := &Queue{cap: capacity}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return publish(&rt.queues, q)
}

// CreateSignal allocates a signal whose counter starts at start and
// returns its handle.
func (rt *Runtime) CreateSignal(start int64) int64 {
	s := &Signal{counter: start}
	s.reached = sync.NewCond(&s.mu)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return publish(&rt.signals, s)
}

// publish appends x to the snapshot table behind tab and returns its
// index; the caller holds rt.mu. Appending in place is safe for readers
// of an older snapshot: they bounds-check against their own length, so
// they never read the slot being written, and a reallocation only reads
// the old backing array.
func publish[T any](tab *atomic.Pointer[[]*T], x *T) int64 {
	var next []*T
	if old := tab.Load(); old != nil {
		next = *old
	}
	next = append(next, x)
	tab.Store(&next)
	return int64(len(next) - 1)
}

// snapshot returns the current contents of a handle table.
func snapshot[T any](tab *atomic.Pointer[[]*T]) []*T {
	if p := tab.Load(); p != nil {
		return *p
	}
	return nil
}

func (rt *Runtime) queue(id int64) (*Queue, error) {
	if err := rt.abortErr(); err != nil {
		return nil, err
	}
	qs := snapshot(&rt.queues)
	if id < 0 || id >= int64(len(qs)) {
		return nil, fmt.Errorf("queue: invalid queue handle %d", id)
	}
	return qs[id], nil
}

func (rt *Runtime) signal(id int64) (*Signal, error) {
	if err := rt.abortErr(); err != nil {
		return nil, err
	}
	ss := snapshot(&rt.signals)
	if id < 0 || id >= int64(len(ss)) {
		return nil, fmt.Errorf("queue: invalid signal handle %d", id)
	}
	return ss[id], nil
}

// abortErr returns the teardown error, or nil while healthy.
func (rt *Runtime) abortErr() error {
	if p := rt.aborted.Load(); p != nil {
		return *p
	}
	return nil
}

// Abort tears the runtime down: every current and future operation
// returns ErrAborted (wrapping cause when non-nil), and every parked
// goroutine is woken. Aborting twice keeps the first cause.
//
// The abort error is stored and the tables are read under rt.mu, which
// creation also holds: a queue or signal either is in the snapshot woken
// here, or was created after the store and fails its first operation.
func (rt *Runtime) Abort(cause error) {
	rt.mu.Lock()
	if rt.aborted.Load() == nil {
		err := ErrAborted
		if cause != nil {
			err = fmt.Errorf("%w (cause: %v)", ErrAborted, cause)
		}
		rt.aborted.Store(&err)
	}
	queues := snapshot(&rt.queues)
	signals := snapshot(&rt.signals)
	rt.mu.Unlock()
	for _, q := range queues {
		q.mu.Lock()
		q.notFull.Broadcast()
		q.notEmpty.Broadcast()
		q.mu.Unlock()
	}
	for _, s := range signals {
		s.mu.Lock()
		s.reached.Broadcast()
		s.mu.Unlock()
	}
}

// Push appends v to queue id. Blocking pushes park while the queue is at
// capacity; non-blocking pushes grow the buffer instead (the sequential
// fallback's unbounded mode). Pushing to a closed queue is an error.
func (rt *Runtime) Push(id int64, v uint64, block bool) error {
	q, err := rt.queue(id)
	if err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if block && q.n >= q.cap && !q.closed {
		// Entering the park path: the clock is read only here, so pushes
		// that find room pay nothing for the instrumentation.
		start := time.Now()
		for q.n >= q.cap && !q.closed {
			if err := rt.abortErr(); err != nil {
				return err
			}
			q.notFull.Wait()
		}
		q.pushParks++
		q.pushParkNS += time.Since(start).Nanoseconds()
	}
	if err := rt.abortErr(); err != nil {
		return err
	}
	if q.closed {
		return fmt.Errorf("queue %d: push: %w", id, ErrClosed)
	}
	q.push(v)
	q.notEmpty.Signal()
	q.pushes++
	return nil
}

// Pop removes the oldest value of queue id. Blocking pops park while the
// queue is empty and open; a non-blocking pop of an empty queue is a
// deterministic error (sequential execution has no producer left to run).
// Popping a drained closed queue returns ErrClosed in either mode.
func (rt *Runtime) Pop(id int64, block bool) (uint64, error) {
	q, err := rt.queue(id)
	if err != nil {
		return 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if block && q.n == 0 && !q.closed {
		start := time.Now()
		for q.n == 0 && !q.closed {
			if err := rt.abortErr(); err != nil {
				return 0, err
			}
			q.notEmpty.Wait()
		}
		q.popParks++
		q.popParkNS += time.Since(start).Nanoseconds()
	}
	if err := rt.abortErr(); err != nil {
		return 0, err
	}
	if q.n == 0 {
		if q.closed {
			q.buf = nil // drained for good: release the ring eagerly
			return 0, fmt.Errorf("queue %d: pop: %w", id, ErrClosed)
		}
		return 0, fmt.Errorf("queue %d: pop from empty queue in sequential execution", id)
	}
	v := q.pop()
	if q.closed && q.n == 0 {
		q.buf = nil // last value of a closed queue: release the ring
		q.head = 0
	}
	q.notFull.Signal()
	q.pops++
	return v, nil
}

// Close marks queue id closed: subsequent pushes fail, and pops drain the
// remaining values before reporting ErrClosed. Closing twice is a no-op.
func (rt *Runtime) Close(id int64) error {
	q, err := rt.queue(id)
	if err != nil {
		return err
	}
	q.mu.Lock()
	q.closed = true
	if q.n == 0 {
		// Loops entered repeatedly create fresh queues per entry; a
		// closed-and-drained queue keeps only its (small) header so the
		// ring buffers do not accumulate across invocations.
		q.buf = nil
		q.head = 0
	}
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
	q.mu.Unlock()
	return nil
}

// Wait parks until signal id's counter reaches ticket. A non-blocking
// wait whose ticket has not come up is a deterministic error: sequential
// execution fires tickets in order, so an unsatisfied wait means the
// module's signal protocol cannot replay in worker order.
func (rt *Runtime) Wait(id, ticket int64, block bool) error {
	s, err := rt.signal(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if block && s.counter < ticket {
		start := time.Now()
		for s.counter < ticket {
			if err := rt.abortErr(); err != nil {
				return err
			}
			s.reached.Wait()
		}
		s.waitParks++
		s.waitParkNS += time.Since(start).Nanoseconds()
	}
	if err := rt.abortErr(); err != nil {
		return err
	}
	if s.counter < ticket {
		return fmt.Errorf("queue: signal %d wait for ticket %d (counter %d) in sequential execution", id, ticket, s.counter)
	}
	s.waits++
	return nil
}

// Fire advances signal id's counter to at least ticket and wakes the
// waiters whose tickets are now reached.
func (rt *Runtime) Fire(id, ticket int64) error {
	s, err := rt.signal(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if ticket > s.counter {
		s.counter = ticket
		s.reached.Broadcast()
	}
	s.fires++
	s.mu.Unlock()
	return nil
}

// Stats reports the cumulative operation counts (creates covers both
// queues and signals), summed over every queue and signal.
func (rt *Runtime) Stats() (creates, pushes, pops, waits, fires int64) {
	qs, ss := snapshot(&rt.queues), snapshot(&rt.signals)
	for _, q := range qs {
		q.mu.Lock()
		pushes += q.pushes
		pops += q.pops
		q.mu.Unlock()
	}
	for _, s := range ss {
		s.mu.Lock()
		waits += s.waits
		fires += s.fires
		s.mu.Unlock()
	}
	return int64(len(qs) + len(ss)), pushes, pops, waits, fires
}

// Depth returns queue id's current and high-water element counts.
func (rt *Runtime) Depth(id int64) (cur, max int, err error) {
	q, err := rt.queue(id)
	if err != nil {
		return 0, 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n, q.depthMax, nil
}

// push appends under q.mu, growing the ring when full (non-blocking mode
// relies on this; blocking mode only reaches it below capacity).
func (q *Queue) push(v uint64) {
	if q.n == len(q.buf) {
		grown := make([]uint64, max(2*len(q.buf), 8))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	if q.n > q.depthMax {
		q.depthMax = q.n
	}
}

func (q *Queue) pop() uint64 {
	v := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
