package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, refusing a percentile the sample cannot support
// (fewer than minTail samples beyond it). xs is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q > 0.5 && float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, int(math.Ceil(minTail/(1-q)-1e-9)), n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median is the 0.5 nearest-rank quantile; 0 for no samples.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop generator's timetable: event i is due at
// start + i/rate, whatever happened to the events before it.
type schedule struct {
	start time.Time
	rate  float64 // events per second
}

// due returns event i's due time.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// lateness records how far behind its own schedule a generator ran: one
// sample per event, the time it went out minus the time it was due.
type lateness struct{ ms []float64 }

func (l *lateness) add(due, sent time.Time) {
	d := sent.Sub(due)
	if d < 0 {
		d = 0
	}
	l.ms = append(l.ms, ms(d))
}

// p99 is the generator lateness the benchmark reports; with too few
// events for a p99 it falls back to the maximum.
func (l *lateness) p99() float64 {
	if v, err := percentile(l.ms, 0.99); err == nil {
		return v
	}
	return slices.Max(append([]float64{0}, l.ms...))
}

// maxGenLateMS is the generator lateness (p99) beyond which a run is
// invalid: its schedule, not the system, set the timing. It is a fifth
// of the live workloads' ~100 ms freshness median.
const maxGenLateMS = 20.0
