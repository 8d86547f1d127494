package main

import (
	"math"
	"sort"
	"time"
)

// percentile reads the q-quantile of v by the nearest-rank definition
// service.Percentile uses (smallest element whose 1-based rank r
// satisfies r ≥ q·n), so the harness and the servers' /stats agree on
// what "p95" means. It sorts a copy; an empty input reads 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// median averages the middle pair on even lengths, so that an even
// count of set-ups does not favour the slower one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
