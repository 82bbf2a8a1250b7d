package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: the highest percentile that still has this many samples
// beyond it is the most extreme one a run can estimate.
const tailBeyond = 10

// sample is a set of latencies in milliseconds.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty sample.
func (s sample) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// tail returns the highest percentile with at least tailBeyond samples
// above it, together with that percentile. With too few samples it falls
// back to the maximum and reports percentile 100.
func (s sample) tail() (value, pct float64) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0, 0
	}
	rank := n - tailBeyond // 1-based rank of the value with tailBeyond above it
	if rank < 1 {
		return c[n-1], 100
	}
	return c[rank-1], 100 * float64(rank) / float64(n)
}

// tailWindowOps is the smallest window windowedTail splits a run into.
const tailWindowOps = 200

// windowedTail splits the sample, in the order it was taken, into as
// many consecutive windows of at least tailWindowOps values as it holds
// (at least one), takes each window's tail, and returns the median of
// the windows' tails and of their percentiles, with the window count. A
// burst of interference from outside the program inflates the tail of
// the window it falls in, not the median over windows.
func (s sample) windowedTail() (value, pct float64, windows int) {
	windows = len(s) / tailWindowOps
	if windows < 1 {
		windows = 1
	}
	var values, pcts sample
	for w := 0; w < windows; w++ {
		v, p := s[w*len(s)/windows : (w+1)*len(s)/windows].tail()
		values = append(values, v)
		pcts = append(pcts, p)
	}
	return values.median(), pcts.median(), windows
}

// quantile is the nearest-rank q-quantile.
func (s sample) quantile(q float64) float64 {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB returns a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
