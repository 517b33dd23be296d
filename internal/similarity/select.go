package similarity

import (
	"slices"
	"unsafe"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

// terms is a run of selected bin pairs in accumulation order: each pair's
// proximity P (Eq. 1) and its key, the flat bin-pair id k = i·nV + j of
// its window (i, j the pair's bin positions on the U and V side, nV the
// V side's bin count). Under MNN pairing a window's first min(nU, nV)
// terms are its MNN picks and any further terms its MFN alibi candidates;
// under all-pairs pairing every term is a plain pick.
type terms struct {
	prox []float64
	keys []uint32
}

func (t *terms) reset() { t.prox, t.keys = t.prox[:0], t.keys[:0] }

func (t *terms) add(p float64, key int32) {
	t.prox = append(t.prox, p)
	t.keys = append(t.keys, uint32(key))
}

// bins decodes term k of a window with nV bins on the V side.
func (t *terms) bins(k int, nV uint32) (bu, bv int) {
	id := t.keys[k]
	i := id / nV
	return int(i), int(id - i*nV)
}

// picks returns how many of window (ku, kv)'s terms are always added: all
// of them under all-pairs pairing, else the min(nU, nV) MNN picks (the
// rest are MFN alibi candidates).
func (s *Scorer) picks(pv *pairView, ku, kv int, t *terms) int {
	if s.Par.Pairing == PairingAllPairs {
		return len(t.prox)
	}
	return int(min(pv.cu.Off[ku+1]-pv.cu.Off[ku], pv.cv.Off[kv+1]-pv.cv.Off[kv]))
}

// binsV returns the V-side bin count of window kv.
func (pv *pairView) binsV(kv int) uint32 { return uint32(pv.cv.Off[kv+1] - pv.cv.Off[kv]) }

// cellDistance is geo.CellDistanceKm between dense cell ci of the U store
// and cj of the V store, evaluated from the stores' geometry tables.
func cellDistance(tabU, tabV history.CellTable, ci, cj int32) float64 {
	a, b := tabU.IDs[ci], tabV.IDs[cj]
	if a == b {
		return 0
	}
	// Canonical argument order: the distance subtracts both circumradii,
	// which is not bit-symmetric in its arguments.
	if b < a {
		return geo.CellDistanceKmGeom(b, a, tabV.Geom[cj], tabU.Geom[ci])
	}
	return geo.CellDistanceKmGeom(a, b, tabU.Geom[ci], tabV.Geom[cj])
}

// sortPairOrder argsorts the flat bin-pair ids by (distance, id). Pair ids
// are i*nV+j, so the id tiebreak is exactly the (i, j) index order of the
// map-based implementation, keeping scores deterministic; distances are
// unique-keyed, so any correct sort yields the identical order.
func sortPairOrder(order []int32, dist []float64) {
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(x, y int32) int {
		dx, dy := dist[x], dist[y]
		switch {
		case dx < dy:
			return -1
		case dx > dy:
			return 1
		}
		return int(x) - int(y)
	})
}

// selectWindow is the one bin-pair selection routine behind every scoring
// entry point. It appends to out the pairs common window (ku, kv)
// contributes, in the order the score accumulates them:
//
//   - allPairs: every cross pair, in (i, j) order (the "All Pairs"
//     ablation).
//   - otherwise the mutually-nearest-neighbor pairing N_w (Sec. 3.1.2):
//     repeatedly the globally closest unused pair until the smaller side
//     is exhausted — one argsort of all cross pairs and a greedy sweep,
//     O(nm log nm) instead of O(min(n,m)·n·m).
//   - with mfn, then the mutually-furthest-neighbor pass N′_w: the same
//     sweep from the far end, recording only pairs MNN did not select
//     (so an alibi is never double counted, Design decision 2) whose
//     proximity is negative. Their weighted delta is added only when it
//     is negative too (see sumWindow), so the weights can be applied
//     later without re-selecting. MNN always picks exactly min(nU, nV)
//     pairs, which is how sumWindow tells the two passes apart.
//
// Selection depends only on the two entities' cells in the window: it
// reads distances from the geometry tables and never the IDF weights or
// the norm.
func (s *Scorer) selectWindow(sc *scratch, out *terms, pv *pairView, ku, kv int, allPairs, mfn bool) {
	loU, hiU := pv.cu.Off[ku], pv.cu.Off[ku+1]
	loV, hiV := pv.cv.Off[kv], pv.cv.Off[kv+1]
	nU, nV := int(hiU-loU), int(hiV-loV)
	n := nU * nV
	if n == 0 {
		return
	}
	cellsU, cellsV := pv.cu.Cells[loU:hiU], pv.cv.Cells[loV:hiV]
	dist := sc.floats(n)
	for i, ci := range cellsU {
		row := dist[i*nV : (i+1)*nV]
		for j, cj := range cellsV {
			row[j] = cellDistance(pv.tabU, pv.tabV, ci, cj)
		}
	}
	prox := func(k int32) float64 { return Proximity(dist[k], s.Par.RunawayKm, s.Par.MinLogArg) }

	if allPairs {
		for k := int32(0); k < int32(n); k++ {
			out.add(prox(k), k)
		}
		return
	}

	nPairs := min(nU, nV)
	order := sc.ints(n)
	sortPairOrder(order, dist)

	usedU := grownBools(&sc.usedU, nU)
	usedV := grownBools(&sc.usedV, nV)
	var sel []bool
	selIDs := sc.selIDs[:0]
	if mfn {
		sel = sc.selMask(n)
	}
	taken := 0
	for _, k := range order {
		if taken == nPairs {
			break
		}
		i, j := int(k)/nV, int(k)%nV
		if usedU[i] || usedV[j] {
			continue
		}
		usedU[i], usedV[j] = true, true
		if sel != nil {
			sel[k] = true
			selIDs = append(selIDs, k)
		}
		out.add(prox(k), k)
		taken++
	}
	sc.selIDs = selIDs
	if !mfn {
		return
	}

	clear(usedU)
	clear(usedV)
	taken = 0
	for k := n - 1; k >= 0 && taken < nPairs; k-- {
		id := order[k]
		i, j := int(id)/nV, int(id)%nV
		if usedU[i] || usedV[j] {
			continue
		}
		usedU[i], usedV[j] = true, true
		taken++
		if sel[id] {
			continue
		}
		if p := prox(id); p < 0 {
			out.add(p, id)
		}
	}
	for _, id := range selIDs {
		sel[id] = false
	}
}

// weight is the IDF weight (Eq. 3) of bin pair (bu, bv) of common window
// (ku, kv), or 1 when IDF is disabled. The builtin min has math.Min's
// semantics for floats (NaN and signed zeros), inlined.
func (s *Scorer) weight(pv *pairView, ku, kv, bu, bv int) float64 {
	if !s.Par.UseIDF {
		return 1
	}
	return min(pv.cu.IDF[int(pv.cu.Off[ku])+bu], pv.cv.IDF[int(pv.cv.Off[kv])+bv])
}

// sumWindow weighs selected terms of common window (ku, kv) with the
// current IDF weights and norm and returns the window's contribution:
// p·min(idf_u, idf_v)/norm per term, in term order, MFN terms added only
// when negative — exactly the kernel's floating-point sequence, so
// re-summing cached terms is bit-identical to selecting afresh.
func (s *Scorer) sumWindow(sc *scratch, pv *pairView, ku, kv int, t *terms) float64 {
	nV := pv.binsV(kv)
	idfU := pv.cu.IDF[pv.cu.Off[ku]:pv.cu.Off[ku+1]]
	idfV := pv.cv.IDF[pv.cv.Off[kv]:pv.cv.Off[kv+1]]
	picks := s.picks(pv, ku, kv, t)
	var sum float64
	for k, p := range t.prox {
		bu, bv := t.bins(k, nV)
		if p < 0 {
			sc.alibi++
		}
		weight := 1.0
		if s.Par.UseIDF {
			weight = min(idfU[bu], idfV[bv])
		}
		d := p * weight / pv.norm
		if k < picks || d < 0 {
			sum += d
		}
	}
	return sum
}

// Selection caches one entity pair's bin-pair selections, per common
// window, for ScoreSelected. Which pairs MNN and MFN select depends only
// on the two entities' cells in a window, while the weights (IDF and
// norm) move with every new bin anywhere in either store; so a rescore
// re-sums cached terms with the current weights and re-selects only the
// windows that are new or gained a cell since the selection was made.
//
// Layout: 12 bytes per cached window (its id and the end of its terms)
// and 12 bytes per term (proximity and key). The zero value is an empty
// selection. A Selection belongs to one (u, v) pair and one Scorer and is
// not safe for concurrent use.
type Selection struct {
	// epochE, epochI are the store epochs the selection is current at:
	// a window whose stamp (history.Compiled.Stamps) is above them gained
	// a cell since and must be re-selected.
	epochE, epochI uint64
	windows        []int64
	ends           []uint32
	terms
}

// NumWindows returns how many common windows the selection caches.
func (sel *Selection) NumWindows() int { return len(sel.windows) }

// NumTerms returns how many selected bin pairs the selection caches.
func (sel *Selection) NumTerms() int { return len(sel.prox) }

// Bytes returns the selection's resident size: the struct plus the
// capacity of its four arrays.
func (sel *Selection) Bytes() int64 {
	return int64(unsafe.Sizeof(*sel)) +
		int64(cap(sel.windows))*8 + int64(cap(sel.ends))*4 +
		int64(cap(sel.prox))*8 + int64(cap(sel.keys))*4
}

func (sel *Selection) reset() {
	sel.windows, sel.ends = sel.windows[:0], sel.ends[:0]
	sel.terms.reset()
}

// window returns the cached terms of window o.
func (sel *Selection) window(o int) terms {
	lo := uint32(0)
	if o > 0 {
		lo = sel.ends[o-1]
	}
	hi := sel.ends[o]
	return terms{prox: sel.prox[lo:hi], keys: sel.keys[lo:hi]}
}

// splice keeps sel's first keep windows and appends suf's windows after
// them (suf's ends are relative to its own terms).
func (sel *Selection) splice(keep int, suf *Selection) {
	base := uint32(0)
	if keep > 0 {
		base = sel.ends[keep-1]
	}
	sel.windows = append(grow(sel.windows[:keep], len(suf.windows)), suf.windows...)
	sel.ends = grow(sel.ends[:keep], len(suf.ends))
	for _, e := range suf.ends {
		sel.ends = append(sel.ends, base+e)
	}
	sel.prox = append(grow(sel.prox[:base], len(suf.prox)), suf.prox...)
	sel.keys = append(grow(sel.keys[:base], len(suf.keys)), suf.keys...)
}

// grow returns s with room for n more elements. When it must reallocate
// it adds an eighth of headroom instead of append's doubling: a selection
// grows by about one window per relink, and capacity slack would
// otherwise make up a third of the cache.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n+(len(s)+n)/8)
	copy(out, s)
	return out
}

// ScoreSelected computes Score(u, v) bit-identically while maintaining
// sel, the pair's cached selection. Each common window is either
// replayed — its cached terms re-summed with the current IDF weights and
// norm — or, when it is new or its stamp on either side is above the
// epoch sel was made at, re-selected (and counted in BinComparisons /
// RecordComparisons, which replayed windows never touch). The cached
// windows before the first re-selected one stay in place; the rest of
// sel is rebuilt from there, so a time-ordered stream, whose changes sit
// in each pair's newest windows, rewrites only its tail.
func (s *Scorer) ScoreSelected(sel *Selection, u, v model.EntityID) float64 {
	pv, ok := s.view(u, v)
	if !ok {
		sel.reset()
		return 0
	}
	sc := s.pool.Get().(*scratch)
	allPairs := s.Par.Pairing == PairingAllPairs
	suf := &sc.suffix
	suf.reset()
	keep := -1 // cached windows kept in place; -1 until the first rewrite
	var total float64
	o, emitted := 0, 0
	wu, wv := pv.cu.Windows, pv.cv.Windows
	for i, j := 0, 0; i < len(wu) && j < len(wv); {
		switch {
		case wu[i] < wv[j]:
			i++
		case wu[i] > wv[j]:
			j++
		default:
			w := wu[i]
			for o < len(sel.windows) && sel.windows[o] < w {
				o++
			}
			had := o < len(sel.windows) && sel.windows[o] == w
			cached := had && pv.cu.Stamps[i] <= sel.epochE && pv.cv.Stamps[j] <= sel.epochI
			if keep < 0 && (!cached || o != emitted) {
				keep = emitted
			}
			var t terms
			if cached {
				t = sel.window(o)
				sc.replayed++
			}
			if keep >= 0 {
				lo := len(suf.prox)
				if cached {
					suf.prox = append(suf.prox, t.prox...)
					suf.keys = append(suf.keys, t.keys...)
				} else {
					sc.countSelection(&pv, i, j)
					s.selectWindow(sc, &suf.terms, &pv, i, j, allPairs, s.Par.UseMFN)
				}
				t = terms{prox: suf.prox[lo:], keys: suf.keys[lo:]}
				suf.windows = append(suf.windows, w)
				suf.ends = append(suf.ends, uint32(len(suf.prox)))
			}
			total += s.sumWindow(sc, &pv, i, j, &t)
			if had {
				o++
			}
			emitted++
			i++
			j++
		}
	}
	if keep < 0 && emitted != len(sel.windows) {
		keep = emitted
	}
	if keep >= 0 {
		sel.splice(keep, suf)
	}
	sel.epochE, sel.epochI = s.E.Epoch(), s.I.Epoch()
	s.flush(sc)
	s.pool.Put(sc)
	return total
}
