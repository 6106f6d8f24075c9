package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a virtual machine the hypervisor can take a vCPU away while the
// benchmark runs ("steal" time). That slows every layer at once and has
// nothing to do with the code under test, so an operation measured
// while the host stole more than maxStealFrac of the CPU capacity is
// measured again (corpus, exec) or left out of the latency figures
// (serve). Each result line reports how much was stolen and how many
// operations were affected.
const (
	maxStealFrac = 0.05
	// minSteal is the smallest steal that counts: /proc/stat reports in
	// 10 ms ticks, so one tick is quantization, not contention.
	minSteal = 0.02
	// maxRemeasure bounds how often one operation is measured again.
	maxRemeasure = 3
)

// hostSteal returns the cumulative steal time of all CPUs in seconds, or
// 0 where /proc/stat does not report it.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// stealWatch records (time, cumulative steal) readings, on demand and,
// optionally, from a sampling goroutine.
type stealWatch struct {
	nproc int
	start time.Time

	mu     sync.Mutex
	times  []time.Time
	steals []float64

	remeasured, excluded int
	// budget caps the total time spent on attempts that were measured
	// again, so a host that stays contended cannot stretch a run
	// without bound; spent is what they took so far.
	budget, spent time.Duration

	stop, done chan struct{}
}

// watchSteal starts a watch; with every > 0 a goroutine also samples at
// that period until close.
func watchSteal(nproc int, every, budget time.Duration) *stealWatch {
	w := &stealWatch{nproc: nproc, budget: budget}
	w.start = w.sample()
	if every > 0 {
		w.stop, w.done = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(w.done)
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-w.stop:
					return
				case <-t.C:
					w.sample()
				}
			}
		}()
	}
	return w
}

// sample records a reading and returns its time.
func (w *stealWatch) sample() time.Time {
	s := hostSteal()
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.times = append(w.times, now)
	w.steals = append(w.steals, s)
	return now
}

// close stops the sampling goroutine and waits for it.
func (w *stealWatch) close() {
	if w.stop != nil {
		close(w.stop)
		<-w.done
		w.stop = nil
	}
}

// contended reports whether the host stole more than maxStealFrac of
// the CPU capacity over [a, b], widened to the readings around it.
func (w *stealWatch) contended(a, b time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	i, j := -1, -1
	for k, t := range w.times {
		if !t.After(a) {
			i = k
		}
		if j < 0 && !t.Before(b) {
			j = k
		}
	}
	if i < 0 || j < 0 || j <= i {
		return false
	}
	stolen := w.steals[j] - w.steals[i]
	capacity := float64(w.nproc) * w.times[j].Sub(w.times[i]).Seconds()
	return stolen >= minSteal && stolen > maxStealFrac*capacity
}

// quietSeconds sums the time between consecutive readings within
// [a, b] during which the host was not contended.
func (w *stealWatch) quietSeconds(a, b time.Time) float64 {
	w.mu.Lock()
	times := append([]time.Time(nil), w.times...)
	w.mu.Unlock()
	quiet := 0.0
	for k := 1; k < len(times); k++ {
		if times[k-1].Before(a) || times[k].After(b) {
			continue
		}
		if !w.contended(times[k-1], times[k]) {
			quiet += times[k].Sub(times[k-1]).Seconds()
		}
	}
	return quiet
}

// measure runs op until it is measured on an uncontended host, at most
// 1+maxRemeasure times and within the watch's budget, and returns the
// last attempt's result. op reports whether its result is final
// regardless of contention (a failure is never measured again).
func measure[T any](w *stealWatch, op func() (T, bool)) T {
	for try := 0; ; try++ {
		a := w.sample()
		res, final := op()
		b := w.sample()
		if final || try == maxRemeasure || w.spent >= w.budget || !w.contended(a, b) {
			return res
		}
		w.remeasured++
		w.spent += b.Sub(a)
	}
}

// report is the one-line account printed before the result.
func (w *stealWatch) report() string {
	w.close()
	w.mu.Lock()
	defer w.mu.Unlock()
	stolen := w.steals[len(w.steals)-1] - w.steals[0]
	wall := w.times[len(w.times)-1].Sub(w.start).Seconds()
	return fmt.Sprintf("host: %.2fs of %.1f CPU-s stolen, %d operations remeasured, %d excluded",
		stolen, float64(w.nproc)*wall, w.remeasured, w.excluded)
}
