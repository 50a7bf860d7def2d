package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (Python's statistics.quantiles "inclusive" rule).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencies collects per-operation latencies by kind, safely from
// several client goroutines.
type latencies struct {
	mu sync.Mutex
	by map[string][]float64 // kind -> milliseconds
}

func newLatencies() *latencies { return &latencies{by: map[string][]float64{}} }

func (l *latencies) add(kind string, d time.Duration) {
	l.mu.Lock()
	l.by[kind] = append(l.by[kind], ms(d))
	l.mu.Unlock()
}

func (l *latencies) get(kind string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.by[kind]...)
}
