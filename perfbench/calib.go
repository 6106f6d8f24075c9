package main

import "time"

// The host's speed drifts over tens of seconds: other tenants of the
// machine contend for its caches, memory bandwidth and the sibling
// hardware threads of our vCPUs, and that moves every layer at once.
// The benchmark therefore times a fixed benchmark-owned kernel right
// before every operation and scales the operation's time to a host on
// which that kernel takes refNominalMS. The kernel neither allocates nor touches
// the repository's code, so nothing a change to the code does can move
// it. It is shaped like the interpreter's compiled tier (a long chain
// of indirect calls to small closures that read and write a working
// set larger than the caches), because a pure arithmetic chain does not
// notice the contention that slows interpretation most.
const refNominalMS = 4.0

const (
	refOps   = 1 << 16 // closures in the kernel's program
	refWords = 1 << 20 // uint64 words of kernel memory (8 MiB)
	refReps  = 3       // passes over the program per sample
)

type refOp func(r *[16]uint64, mem []uint64)

var (
	refProg = buildRefProg()
	refMem  = make([]uint64, refWords)
	refSink uint64
)

// buildRefProg draws the kernel's program from a fixed linear
// congruential sequence, so every build times the same work.
func buildRefProg() []refOp {
	const mask = refWords - 1
	x := uint32(777)
	prog := make([]refOp, refOps)
	for i := range prog {
		x = x*1664525 + 1013904223
		a, b, c := int(x>>8)&15, int(x>>12)&15, uint64(x>>16)
		switch x >> 28 % 6 {
		case 0:
			prog[i] = func(r *[16]uint64, _ []uint64) { r[a] += r[b] + c }
		case 1:
			prog[i] = func(r *[16]uint64, _ []uint64) { r[a] ^= r[b] << 1 }
		case 2:
			prog[i] = func(r *[16]uint64, m []uint64) { m[(r[a]*2654435761+c)&mask] = r[b] }
		case 3:
			prog[i] = func(r *[16]uint64, m []uint64) { r[a] += m[(r[b]*2654435761^c)&mask] }
		case 4:
			prog[i] = func(r *[16]uint64, _ []uint64) {
				if r[a] > r[b] {
					r[a] -= r[b]
				}
			}
		default:
			prog[i] = func(r *[16]uint64, _ []uint64) { r[a] = r[a]*3 + c }
		}
	}
	return prog
}

func refKernel() {
	var r [16]uint64
	for rep := 0; rep < refReps; rep++ {
		for _, op := range refProg {
			op(&r, refMem)
		}
	}
	refSink += r[0]
}

// hostSpeed collects kernel timings; sample it only while the
// benchmark's own load is idle.
type hostSpeed struct{ ms []float64 }

// sample times the kernel n times and returns the factor that converts
// a time measured right after it to the nominal host: the nominal
// kernel time over the median of the n timings, below 1 when the host
// runs slow.
func (h *hostSpeed) sample(n int) float64 {
	var ms []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		refKernel()
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	h.ms = append(h.ms, ms...)
	return refNominalMS / median(ms)
}

// scale is the run's typical factor: the one for the median kernel
// timing. Serve requests and per-layer times use it.
func (h *hostSpeed) scale() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return refNominalMS / median(h.ms)
}
