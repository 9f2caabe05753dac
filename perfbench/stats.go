package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// series is a concurrency-safe list of samples.
type series struct {
	mu sync.Mutex
	xs []float64
}

func (s *series) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *series) addDur(d time.Duration) { s.add(ms(d)) }

func (s *series) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

func (s *series) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

func (s *series) q(p float64) float64 { return quantile(s.values(), p) }

// quantile interpolates linearly between closest ranks; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := math.Floor(h)
	if int(lo)+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[int(lo)] + (h-lo)*(xs[int(lo)+1]-xs[int(lo)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapPeak samples live heap object bytes until stop is closed and
// returns the largest reading in MiB.
func heapPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()) / (1 << 20); v > peak {
				peak = v
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// gcState is a runtime/metrics reading of collector activity.
type gcState struct{ cycles, pauseMS float64 }

func readGC() gcState {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	h := s[1].Value.Float64Histogram()
	pause := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		pause += float64(c) * (lo + hi) / 2
	}
	return gcState{cycles: float64(s[0].Value.Uint64()), pauseMS: pause * 1000}
}

func (g gcState) sub(prev gcState) gcState {
	return gcState{cycles: g.cycles - prev.cycles, pauseMS: g.pauseMS - prev.pauseMS}
}
