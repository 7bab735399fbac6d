package main

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// The shared host this benchmark runs on changes speed by up to 2x over
// minutes: a CPU-bound loop and a cold sweep slow down together, and no
// run is long enough to average such a phase out. So the benchmark times
// a fixed reference loop of its own before and after every repetition
// (serve-warm-open: every rate step) and reports times at the reference
// host speed: measured time × refNominal ÷ the run's median reference
// time. The loop is code of the benchmark, not of the program, so a
// change to the program moves the reported figures as it moves the raw
// ones.

// refNominal is the reference loop's time, in seconds, on a 2-vCPU
// Intel Xeon guest at 2.1 GHz in a quiet phase: the host speed the
// reported times are taken at.
const refNominal = 0.50

// refThreads matches the daemon's two simulation workers (and the
// fleet's two worker processes).
const refThreads = 2

var refSink uint64

// hostRef times the reference loop: on each of refThreads goroutines,
// random updates of a 512 KiB table, which stays in the core's own
// caches. Of the loops tried (this one, random updates over 16 and 64
// MiB, a pointer chase over 16 MiB, small allocations), this one's time
// tracked the cold sweep's best: over 59 sweeps, dividing by it cut the
// sweep time's coefficient of variation from 0.121 to 0.094, where the
// memory-bound loops, noisier than the sweep itself, raised it.
func hostRef() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, refThreads)
	for t := 0; t < refThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			x := uint64(t + 1)
			table := make([]uint64, 1<<16)
			for i := 0; i < 300_000_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				table[x>>48] += x
			}
			sums[t] = x + table[7]
		}(t)
	}
	wg.Wait()
	for _, s := range sums {
		refSink += s
	}
	return time.Since(t0).Seconds()
}

// timeRef times the reference loop unless it ran in the last two
// seconds: the time taken after one repetition serves as the one before
// the next.
func (e *env) timeRef(fresh bool) {
	if fresh || time.Since(e.refAt) > 2*time.Second {
		e.refs = append(e.refs, hostRef())
		e.refAt = time.Now()
	}
}

// slowdown is how much slower than the reference host speed the host
// ran during this invocation: the median reference loop time ÷
// refNominal.
func (e *env) slowdown() float64 {
	return median(e.refs) / refNominal
}

// refLine describes the reference loop times and the slowdown for the
// human-readable table.
func (e *env) refLine() string {
	times := make([]string, len(e.refs))
	for i, t := range e.refs {
		times[i] = fmt.Sprintf("%.3f", t)
	}
	return fmt.Sprintf("reference loop %ss (nominal %.2fs), host slowdown %.3f", strings.Join(times, "/"), refNominal, e.slowdown())
}
