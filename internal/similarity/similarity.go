// Package similarity implements SLIM's mobility-history similarity score
// (Sec. 3.1): the time-location bin proximity function P (Eq. 1), the
// mutually-nearest-neighbor pairing N and mutually-furthest-neighbor
// pairing N′ (alibi detection), the IDF uniqueness award (Eq. 3), and the
// BM25-style history-length normalization L, aggregated into the score
// S(u,v) of Eq. 2.
//
// The scorer also exposes the ablation switches exercised by the paper's
// Sec. 5.4 study: all-pairs pairing instead of MNN, disabling the optional
// MFN pass, disabling IDF, and disabling normalization.
//
// Scoring runs on the compiled read path of internal/history: flat
// per-window cell/weight/IDF arrays instead of the build-time maps, cell
// geometry read from the stores' cell tables, and all per-call state held
// in pooled per-goroutine scratch buffers. A warm Score call performs zero
// heap allocations (enforced by TestScoreWarmZeroAllocs) while producing
// bit-identical scores to the original map-walking implementation
// (enforced by the compiled-vs-map parity tests).
//
// Every scoring entry point — Score, ScoreSelected, ProbeRatio and
// ScoreBreakdown — picks a window's bin pairs with the one selection
// routine of select.go and weighs them afterwards, so the pairing rule
// exists exactly once.
package similarity

import (
	"math"
	"sync"
	"sync/atomic"

	"slim/internal/history"
	"slim/internal/model"
)

// PairingMode selects how time-location bin pairs are formed per window.
type PairingMode int

const (
	// PairingMNN is the paper's default: greedy mutually-nearest-neighbor
	// pairing until the smaller side is exhausted.
	PairingMNN PairingMode = iota
	// PairingAllPairs matches every cross pair of bins in the window (the
	// "All Pairs" ablation of Fig. 10).
	PairingAllPairs
)

// DefaultMinLogArg clamps the argument of the log2 in the proximity
// function so that a single extreme alibi contributes a large but finite
// penalty (P >= -20) instead of -Inf.
const DefaultMinLogArg = 1.0 / (1 << 20)

// Params configures the similarity computation.
type Params struct {
	// RunawayKm is R: the maximum distance an entity can travel within one
	// temporal window (window width × maximum speed).
	RunawayKm float64
	// B is the BM25-style length-normalization strength in [0, 1].
	B float64
	// MinLogArg clamps the proximity log argument (see DefaultMinLogArg).
	MinLogArg float64
	// Pairing selects MNN (default) or all-pairs bin pairing.
	Pairing PairingMode
	// UseMFN enables the optional mutually-furthest-neighbor alibi pass.
	UseMFN bool
	// UseIDF enables the IDF uniqueness award.
	UseIDF bool
	// UseNorm enables the history-length normalization.
	UseNorm bool
}

// DefaultParams returns the paper's default configuration for the given
// temporal window width and maximum entity speed (the paper uses
// 2 km/minute, the US-highway-derived bound).
func DefaultParams(windowMinutes, maxSpeedKmPerMin float64) Params {
	return Params{
		RunawayKm: windowMinutes * maxSpeedKmPerMin,
		B:         0.5,
		MinLogArg: DefaultMinLogArg,
		Pairing:   PairingMNN,
		UseMFN:    true,
		UseIDF:    true,
		UseNorm:   true,
	}
}

// Proximity evaluates Eq. 1 for a pair of same-window bins at the given
// cell distance: log2(2 − min(d/R, 2)), with the log argument clamped at
// minLogArg. The result is 1 for identical cells, 0 at the runaway
// distance, and negative (an alibi) beyond it.
func Proximity(distKm, runawayKm, minLogArg float64) float64 {
	if runawayKm <= 0 {
		if distKm == 0 {
			return 1
		}
		return math.Log2(minLogArg)
	}
	ratio := distKm / runawayKm
	if ratio > 2 {
		ratio = 2
	}
	arg := 2 - ratio
	if arg < minLogArg {
		arg = minLogArg
	}
	return math.Log2(arg)
}

// Stats accumulates the work counters the paper's evaluation reports.
// Counters are updated atomically, so one Scorer can be shared by many
// goroutines; each Score call batches its counters into a single flush.
//
// BinComparisons and RecordComparisons count selection work: a window
// whose cached selection is replayed (ScoreSelected) compares no bins, so
// on incremental relinks they cover only the re-selected windows.
type Stats struct {
	// BinComparisons counts time-location bin pair distance evaluations.
	BinComparisons int64
	// RecordComparisons counts the equivalent pairwise record comparisons
	// (the product of per-window record counts of the two entities), the
	// measure behind Fig. 4d / 5d / 11d.
	RecordComparisons int64
	// AlibiBinPairs counts weighed bin pairs whose proximity was negative
	// (replayed windows included: the count is the same either way).
	AlibiBinPairs int64
	// PairsScored counts entity pairs scored.
	PairsScored int64
	// WindowsSelected counts common windows whose bin pairs were selected
	// afresh; WindowsReplayed counts common windows re-summed from a
	// cached selection (see ScoreSelected).
	WindowsSelected int64
	WindowsReplayed int64
}

// Scorer computes similarity scores between entities of two history stores.
type Scorer struct {
	E, I  *history.Store
	Par   Params
	stats Stats

	// pool holds per-goroutine scratch state (distance matrix, argsort
	// order, pairing masks, selected terms) so warm Score calls allocate
	// nothing and share no locks.
	pool sync.Pool
}

// scratch is the per-goroutine working state of one scoring call. Buffers
// grow to the largest window pair seen and are reused.
type scratch struct {
	dist   []float64
	order  []int32
	usedU  []bool
	usedV  []bool
	sel    []bool // all-false between windows; reset via selIDs
	selIDs []int32
	// terms receives the selection routine's output (see selectWindow);
	// suffix is ScoreSelected's rebuilt tail of a cached selection.
	terms  terms
	suffix Selection

	// Batched stat counters, flushed once per scored pair.
	binCmp, recCmp, alibi, selected, replayed int64
}

func (sc *scratch) floats(n int) []float64 {
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
	}
	return sc.dist[:n]
}

func (sc *scratch) ints(n int) []int32 {
	if cap(sc.order) < n {
		sc.order = make([]int32, n)
	}
	return sc.order[:n]
}

// selMask returns the selected-pair mask without clearing: the mask is
// kept all-false between windows by resetting exactly the entries set
// (selIDs), and fresh allocations are zeroed.
func (sc *scratch) selMask(n int) []bool {
	if cap(sc.sel) < n {
		sc.sel = make([]bool, n)
	}
	return sc.sel[:n]
}

func grownBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
		return *buf
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// NewScorer builds a scorer over the two stores. The stores may be the same
// object (used for the self-similarity queries of the auto-tuner).
func NewScorer(e, i *history.Store, p Params) *Scorer {
	s := &Scorer{E: e, I: i, Par: p}
	s.pool.New = func() any { return new(scratch) }
	return s
}

// Stats returns a snapshot of the accumulated work counters.
func (s *Scorer) Stats() Stats {
	return Stats{
		BinComparisons:    atomic.LoadInt64(&s.stats.BinComparisons),
		RecordComparisons: atomic.LoadInt64(&s.stats.RecordComparisons),
		AlibiBinPairs:     atomic.LoadInt64(&s.stats.AlibiBinPairs),
		PairsScored:       atomic.LoadInt64(&s.stats.PairsScored),
		WindowsSelected:   atomic.LoadInt64(&s.stats.WindowsSelected),
		WindowsReplayed:   atomic.LoadInt64(&s.stats.WindowsReplayed),
	}
}

// flush publishes a scored pair's batched counters with one atomic add per
// touched counter instead of one per bin pair.
func (s *Scorer) flush(sc *scratch) {
	atomic.AddInt64(&s.stats.PairsScored, 1)
	for _, c := range [...]struct {
		dst *int64
		src *int64
	}{
		{&s.stats.BinComparisons, &sc.binCmp},
		{&s.stats.RecordComparisons, &sc.recCmp},
		{&s.stats.AlibiBinPairs, &sc.alibi},
		{&s.stats.WindowsSelected, &sc.selected},
		{&s.stats.WindowsReplayed, &sc.replayed},
	} {
		if *c.src != 0 {
			atomic.AddInt64(c.dst, *c.src)
			*c.src = 0
		}
	}
}

// pairView is the read state of one scored pair: both compiled views,
// both stores' cell tables, and the length normalization.
type pairView struct {
	cu, cv     *history.Compiled
	tabU, tabV history.CellTable
	// lu, lv are L(u) and L(v) (1 when normalization is disabled); norm is
	// their product, clamped to 1 when non-positive.
	lu, lv, norm float64
}

// view loads the pair's read state; ok is false when either entity is
// unknown.
func (s *Scorer) view(u, v model.EntityID) (pv pairView, ok bool) {
	pv.cu, pv.tabU = s.E.CompiledView(u)
	pv.cv, pv.tabV = s.I.CompiledView(v)
	if pv.cu == nil || pv.cv == nil {
		return pv, false
	}
	pv.lu, pv.lv = 1, 1
	if s.Par.UseNorm {
		pv.lu = s.E.NormFactor(u, s.Par.B)
		pv.lv = s.I.NormFactor(v, s.Par.B)
	}
	pv.norm = pv.lu * pv.lv
	if pv.norm <= 0 {
		pv.norm = 1
	}
	return pv, true
}

// countSelection adds one selected window's work to the batched counters:
// every cross bin pair gets a distance evaluation, and each corresponds to
// countU×countV record comparisons. The per-window record sums were
// accumulated at compile time in the same (sorted-cell) order the map
// scorer used, so the rounded product is bit-identical.
func (sc *scratch) countSelection(pv *pairView, ku, kv int) {
	nU := int(pv.cu.Off[ku+1] - pv.cu.Off[ku])
	nV := int(pv.cv.Off[kv+1] - pv.cv.Off[kv])
	sc.binCmp += int64(nU * nV)
	sc.recCmp += int64(pv.cu.WinRecs[ku]*pv.cv.WinRecs[kv] + 0.5)
	sc.selected++
}

// Score computes S(u, v) per Eq. 2 / Alg. 1 for u in store E and v in
// store I. Unknown entities score 0.
func (s *Scorer) Score(u, v model.EntityID) float64 {
	pv, ok := s.view(u, v)
	if !ok {
		return 0
	}
	sc := s.pool.Get().(*scratch)
	allPairs := s.Par.Pairing == PairingAllPairs
	var total float64
	wu, wv := pv.cu.Windows, pv.cv.Windows
	for i, j := 0, 0; i < len(wu) && j < len(wv); {
		switch {
		case wu[i] < wv[j]:
			i++
		case wu[i] > wv[j]:
			j++
		default:
			sc.countSelection(&pv, i, j)
			sc.terms.reset()
			s.selectWindow(sc, &sc.terms, &pv, i, j, allPairs, s.Par.UseMFN)
			total += s.sumWindow(sc, &pv, i, j, &sc.terms)
			i++
			j++
		}
	}
	s.flush(sc)
	s.pool.Put(sc)
	return total
}

// ProbeRatio supports the spatial-level auto-tuner (Sec. 3.3). It returns
// the ratio of the pair's actual similarity to the idealized similarity of
// the same MNN pairing with all distances treated as zero (perfect
// self-like match). At spatial levels too coarse to distinguish the
// entities the ratio is 1; it decreases as detail separates them. ok is
// false when the pair shares no usable evidence (no common windows or all
// IDF weights zero).
func (s *Scorer) ProbeRatio(u, v model.EntityID) (ratio float64, ok bool) {
	pv, known := s.view(u, v)
	if !known {
		return 0, false
	}
	sc := s.pool.Get().(*scratch)
	var num, den float64
	wu, wv := pv.cu.Windows, pv.cv.Windows
	for i, j := 0, 0; i < len(wu) && j < len(wv); {
		switch {
		case wu[i] < wv[j]:
			i++
		case wu[i] > wv[j]:
			j++
		default:
			// The MNN sweep alone, whatever the configured pairing.
			sc.terms.reset()
			s.selectWindow(sc, &sc.terms, &pv, i, j, false, false)
			nV := pv.binsV(j)
			for t, p := range sc.terms.prox {
				bu, bv := sc.terms.bins(t, nV)
				weight := s.weight(&pv, i, j, bu, bv)
				num += p * weight
				den += weight // Proximity(0) == 1
			}
			i++
			j++
		}
	}
	s.pool.Put(sc)
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

// forEachCommonWindow walks two sorted window slices and invokes fn for
// every window index present in both.
func forEachCommonWindow(a, b []int64, fn func(int64)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}
