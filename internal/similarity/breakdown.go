package similarity

import (
	"slim/internal/geo"
	"slim/internal/model"
)

// PairContribution is one bin pair's term in a window's score: the two
// cells, their distance, the proximity P (Eq. 1), the IDF weight (Eq. 3),
// and the exact normalized value added to the window sum
// (proximity × weight / norm). MFN marks terms contributed by the
// mutually-furthest-neighbor alibi pass; Alibi marks negative proximity.
type PairContribution struct {
	CellU, CellV geo.CellID
	DistanceKm   float64
	Proximity    float64
	IDFWeight    float64
	Contribution float64
	Alibi        bool
	MFN          bool
}

// WindowBreakdown is the decomposition of one common temporal window:
// the bin pairs the pairing selected (in selection order — the exact
// order the kernel accumulated them) and their sum, which is
// bit-identical to the window's contribution inside Score.
type WindowBreakdown struct {
	// Window is the leaf temporal window index.
	Window int64
	// BinsU / BinsV count the two entities' time-location bins in this
	// window.
	BinsU, BinsV int
	// Pairs are the contributing bin pairs in accumulation order. The MFN
	// pass only appends pairs that actually contributed (negative,
	// non-selected), mirroring the kernel.
	Pairs []PairContribution
	// Sum is the window's total contribution, accumulated over Pairs in
	// order — bit-identical to the kernel's per-window sum.
	Sum float64
}

// Breakdown is the full decomposition of one Score(u, v) call. Total is
// recomposed by adding Windows[k].Sum in window order, replicating the
// kernel's accumulation sequence exactly, so Total (and the re-summed
// window sums) equal Score(u, v) bit for bit — the property gated by
// TestScoreBreakdownRecomposesBitIdentically.
type Breakdown struct {
	U, V model.EntityID
	// Known is false when either entity has no history (Score returns 0).
	Known bool
	// NormU / NormV are the BM25-style length factors L(u), L(v) (1 when
	// normalization is disabled); Norm is the product actually divided by
	// (clamped to 1 when non-positive, exactly as in Score).
	NormU, NormV, Norm float64
	// Windows decomposes every common temporal window, in window order.
	Windows []WindowBreakdown
	// Total is the recomposed score.
	Total float64
}

// ScoreBreakdown computes the full per-window decomposition of
// Score(u, v). It is the explainability slow path: a view over the same
// selection routine and weighting the kernel runs (selectWindow, then
// p·weight/norm per term in term order, MFN terms only when negative, and
// window sums added in window order), so the recomposed Total is
// bit-identical to Score(u, v); DistanceKm is read back from the stores'
// geometry tables. Unlike Score it allocates freely (fresh buffers, no
// pooled scratch) and leaves the scorer's work counters untouched:
// calling it never perturbs Stats() or the 0 alloc/op hot path.
func (s *Scorer) ScoreBreakdown(u, v model.EntityID) *Breakdown {
	bd := &Breakdown{U: u, V: v, NormU: 1, NormV: 1, Norm: 1}
	pv, ok := s.view(u, v)
	if !ok {
		return bd
	}
	bd.Known = true
	bd.NormU, bd.NormV, bd.Norm = pv.lu, pv.lv, pv.norm

	sc := new(scratch)
	allPairs := s.Par.Pairing == PairingAllPairs
	wu, wv := pv.cu.Windows, pv.cv.Windows
	for i, j := 0, 0; i < len(wu) && j < len(wv); {
		switch {
		case wu[i] < wv[j]:
			i++
		case wu[i] > wv[j]:
			j++
		default:
			sc.terms.reset()
			s.selectWindow(sc, &sc.terms, &pv, i, j, allPairs, s.Par.UseMFN)
			wb := s.breakdownWindow(&pv, i, j, &sc.terms)
			// Add even an empty window's (zero) sum: Score adds every
			// common window's return value, and the accumulation sequence
			// must match term for term.
			bd.Total += wb.Sum
			bd.Windows = append(bd.Windows, wb)
			i++
			j++
		}
	}
	return bd
}

// breakdownWindow decomposes one common window's selected terms,
// weighing them exactly as sumWindow does.
func (s *Scorer) breakdownWindow(pv *pairView, ku, kv int, t *terms) WindowBreakdown {
	loU, loV := pv.cu.Off[ku], pv.cv.Off[kv]
	nV := pv.binsV(kv)
	wb := WindowBreakdown{
		Window: pv.cu.Windows[ku],
		BinsU:  int(pv.cu.Off[ku+1] - loU),
		BinsV:  int(nV),
	}
	picks := s.picks(pv, ku, kv, t)
	for k, p := range t.prox {
		bu, bv := t.bins(k, nV)
		mfn := k >= picks
		weight := s.weight(pv, ku, kv, bu, bv)
		c := p * weight / pv.norm
		// Only strictly negative MFN deltas contribute, exactly as in the
		// kernel (a zero-weight alibi pair produces -0.0, which is not < 0
		// and is skipped there too).
		if mfn && !(c < 0) {
			continue
		}
		ci, cj := pv.cu.Cells[int(loU)+bu], pv.cv.Cells[int(loV)+bv]
		wb.Sum += c
		wb.Pairs = append(wb.Pairs, PairContribution{
			CellU:        pv.tabU.IDs[ci],
			CellV:        pv.tabV.IDs[cj],
			DistanceKm:   cellDistance(pv.tabU, pv.tabV, ci, cj),
			Proximity:    p,
			IDFWeight:    weight,
			Contribution: c,
			Alibi:        p < 0,
			MFN:          mfn,
		})
	}
	return wb
}
