package main

import (
	"sort"
	"time"
)

// The benchmark's only clock. Every host-time measurement goes through
// nowNs, and no simulated value ever reads it: the simulator stays a pure
// function of its seed while the benchmark times it from outside.

var epoch = time.Now() //nocvet:nondet host timing is what the benchmark measures; no simulated value reads it

// nowNs returns host monotonic nanoseconds since the process started.
func nowNs() int64 {
	return int64(time.Since(epoch)) //nocvet:nondet host timing is what the benchmark measures; no simulated value reads it
}

// clockCost calibrates the cost of one nowNs call: the median, over
// batches, of the mean spacing of back-to-back reads. The tracer subtracts
// it once per timed call.
func clockCost() float64 {
	const batches, reads = 15, 20000
	costs := make([]float64, batches)
	for b := range costs {
		start := nowNs()
		for i := 0; i < reads; i++ {
			nowNs()
		}
		costs[b] = float64(nowNs()-start) / reads
	}
	sort.Float64s(costs)
	return median(costs)
}
