package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"slim/internal/engine"
)

// minBeyond is how many samples a percentile needs above it: p90 needs
// at least 100 samples, p99 at least 1000.
const minBeyond = 10

// percentile is the nearest-rank p-quantile (0 < p < 1) of xs. It fails
// when fewer than minBeyond samples lie beyond the rank, so a reported
// tail always rests on enough observations.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := max(int(math.Ceil(p*float64(n)-1e-9)), 1)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d", p*100, n, max(n-rank, 0), minBeyond)
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[rank-1], nil
}

// maxWindows caps how many windows windowedPercentile splits a run into.
const maxWindows = 5

// windowedPercentile splits xs, in time order, into as many equal
// consecutive windows as leave each one minBeyond samples beyond the
// percentile (at most maxWindows), and returns the median of the
// windows' percentiles. The machine's speed drifts over seconds, and
// without this the tail of one slow stretch would set the whole run's
// figure.
func windowedPercentile(xs []float64, p float64) (float64, error) {
	need := int(math.Ceil(minBeyond/(1-p) - 1e-9))
	k := min(max(len(xs)/need, 1), maxWindows)
	vals := make([]float64, 0, k)
	for w := range k {
		v, err := percentile(xs[w*len(xs)/k:(w+1)*len(xs)/k], p)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// visibility is the ingest→link-visible attribution of one batch.
type visibility struct {
	// visible runs from the batch's due time to the end of the run that
	// made it visible; wait from its ack to that run's start.
	visible, wait time.Duration
	run           uint64 // Seq of that run
}

// attribute assigns every acknowledged batch the first journaled run
// that started after its ack and did real work: short circuits and
// panicked runs published nothing new and are skipped. A run that
// started before the ack may already have included the batch; counting
// only later runs makes the latency conservative. dues and acks are
// parallel; runs may come in any order.
func attribute(dues, acks []time.Time, runs []engine.RunRecord) ([]visibility, error) {
	var ok []engine.RunRecord
	for _, r := range runs {
		if !r.ShortCircuit && !r.Panicked {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].Start.Before(ok[b].Start) })
	out := make([]visibility, len(acks))
	for k, ack := range acks {
		j := sort.Search(len(ok), func(j int) bool { return ok[j].Start.After(ack) })
		if j == len(ok) {
			return nil, fmt.Errorf("batch %d acked at %s: no relink started after it", k, ack.Format(time.RFC3339Nano))
		}
		r := ok[j]
		out[k] = visibility{
			visible: r.Start.Add(r.Duration).Sub(dues[k]),
			wait:    r.Start.Sub(ack),
			run:     r.Seq,
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func toMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func toUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
