package main

import "time"

// The host-speed kernel is a fixed piece of work the end-to-end pass runs
// between campaigns to read how fast the host is at that moment, one part for
// each thing a neighbour on the host can take away: a register-only
// arithmetic chain (the core), sweeps over a 2 MB array (the outer caches) and
// one pass over a 32 MB array (memory). It calls nothing outside this file,
// so no change to the engine can move it.
//
// Why it exists: the reference box is a 2-vCPU guest on a shared host, and
// what its neighbours do to the shared caches and memory slows the guest by
// anything up to 2x for seconds to minutes at a time — cache-resident work
// far more than arithmetic (the sweeps alone wander 1.1-1.9x while the chain
// stays within 1.1-1.3x; a campaign lies between). No statistic of wall-clock
// timings can see through a slow spell that outlasts the run, and ten-seed
// sets of plain wall-clock results spread 15-65% for that reason alone.
// Dividing each timing by the kernel's slowdown at that moment brings the
// same sets within a few percent (README.md, "Measured spread").
const (
	hostSpeedChain  = 2_400_000
	hostSpeedSweeps = 32
	// hostSpeedNominalS is what the kernel takes on the reference box (Xeon
	// 2.1 GHz, go1.24) when the host is quiet: the fastest of three thousand
	// runs. It anchors the correction, so that a run made entirely
	// inside a slow spell is corrected too; on another box it scales every
	// end-to-end figure by one constant.
	hostSpeedNominalS = 0.026
)

type hostSpeed struct {
	state  uint64
	cached []float32 // 2 MB
	memory []float32 // 32 MB
	// less divides the work, and the nominal time with it, for the smoke
	// test's quick sizes.
	less int
}

func newHostSpeed(quick bool) *hostSpeed {
	h := &hostSpeed{state: 1, cached: make([]float32, 1<<19), less: 1}
	if quick {
		h.less = 8
	}
	h.memory = make([]float32, (1<<23)/h.less)
	return h
}

// run runs the kernel once and returns its wall time in seconds.
func (h *hostSpeed) run() float64 {
	start := time.Now()
	x, steps, sweeps := h.state, hostSpeedChain/h.less, hostSpeedSweeps/h.less
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	h.state = x
	for s := 0; s < sweeps; s++ {
		for i := range h.cached {
			h.cached[i] = h.cached[i]*0.9999 + 0.5
		}
	}
	for i := range h.memory {
		h.memory[i] = h.memory[i]*0.9999 + 0.5
	}
	return time.Since(start).Seconds()
}

// factor is how much slower than nominal the host ran over an interval, from
// the kernel's wall just before and just after it.
func (h *hostSpeed) factor(before, after float64) float64 {
	return (before + after) / 2 / (hostSpeedNominalS / float64(h.less))
}
