package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// opClass separates the two kinds of timed operation: reads are SELECTs
// (htap's reports run inside the held snapshot), writes are
// auto-committed DML whose latency includes the commit.
type opClass int

const (
	classRead opClass = iota
	classWrite
	numClasses
)

func (c opClass) String() string {
	if c == classRead {
		return "read"
	}
	return "write"
}

// samples holds the per-operation measurements of one class: wall
// latency and the process CPU (user+sys) spent between the operation's
// two getrusage readings, both in nanoseconds.
type samples struct {
	wall []int64
	cpu  []int64
}

func (s *samples) add(wall time.Duration, cpu int64) {
	s.wall = append(s.wall, int64(wall))
	s.cpu = append(s.cpu, cpu)
}

// minBeyond is how many samples must lie above a reported tail
// percentile, and minTailSamples the count below which no tail is
// reported at all (forty samples leave ten beyond the 75th percentile).
const (
	minBeyond      = 10
	minTailSamples = 40
)

// tailLadder lists the percentiles a tail is read from, highest first.
// It stops at p90. On the 2-vCPU reference machine, where neighbours
// stole about a seventh of the CPU during runs, p99 over a 20-second
// run of identical code moved by up to 60% from run to run, and p90 by
// at most a third as much: a p99 would gate on the neighbours.
var tailLadder = []float64{90, 75}

// rankIndex is the nearest-rank index of the p-th percentile in n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(i, n-1))
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentile is the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 50 (the median alone) when n is
// below minTailSamples.
func tailPercentile(n int) float64 {
	if n < minTailSamples {
		return 50
	}
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of sorted; 0 when
// sorted is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// mean is the arithmetic mean of xs; 0 when xs is empty.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// classSummary is what the end-to-end metrics report for one class.
type classSummary struct {
	n       int
	p50     int64   // ns
	tailPct float64 // the tail percentile tailPercentile chose
	tail    int64   // ns
	p99     int64   // ns, stated beside the tail but not gated
	cpuMean float64 // ns per operation
}

func summarize(s *samples) classSummary {
	sorted := slices.Clone(s.wall)
	slices.Sort(sorted)
	n := len(sorted)
	p := tailPercentile(n)
	return classSummary{
		n:       n,
		p50:     percentile(sorted, 50),
		tailPct: p,
		tail:    percentile(sorted, p),
		p99:     percentile(sorted, 99),
		cpuMean: mean(s.cpu),
	}
}

// cpuNanos is the process CPU time (user+sys, every thread) a getrusage
// reading carries, in nanoseconds.
func cpuNanos(ru *syscall.Rusage) int64 {
	return (ru.Utime.Sec+ru.Stime.Sec)*1e9 + (ru.Utime.Usec+ru.Stime.Usec)*1e3
}

// processCPU reads the process CPU clock through getrusage(RUSAGE_SELF).
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// getrusage(RUSAGE_SELF) fails only on a bad pointer.
		panic(err)
	}
	return cpuNanos(&ru)
}

// median of float samples (setup times); 0 when empty.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
