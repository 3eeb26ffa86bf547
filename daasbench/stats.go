package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sleepUntil waits for t. The runtime's timers overshoot by up to a
// millisecond when the process is idle, which would show as generator
// lateness in every open-loop sample, so the last stretch is one
// nanosleep(2) on the calling thread (tens of microseconds late).
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
	}
}

// peakRSSMB is the process's peak resident set in MiB (getrusage
// ru_maxrss, in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// splitmix is the benchmark's seeded generator for inputs.
type splitmix struct{ state uint64 }

func newRand(seed uint64, stream string) *splitmix {
	s := &splitmix{state: seed}
	for _, c := range stream {
		s.state ^= uint64(c)
		s.next()
	}
	return s
}

func (r *splitmix) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func pct(part, whole float64) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}
