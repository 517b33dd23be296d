// Package history implements SLIM's mobility-history representation
// (Sec. 2.3): per-entity temporal segment trees whose leaves are fixed-width
// time windows holding spatial grid-cell ids with record counts, and whose
// interior nodes aggregate the occurrence counts of the cell ids in their
// sub-tree. The aggregated nodes answer the dominating-grid-cell range
// queries that drive the LSH signatures (Sec. 4).
//
// A Store holds the histories of one location dataset together with the
// dataset-level statistics the similarity score needs: the bin→entity
// frequency index behind the IDF component (Eq. 3) and the average history
// size behind the BM25-style length normalization (Eq. 2).
package history

import (
	"math"
	"slices"
	"sync"

	"slim/internal/geo"
	"slim/internal/model"
)

// Bin is a time-location bin: one leaf entry of a mobility history.
type Bin struct {
	Window int64
	Cell   geo.CellID
}

// History is the mobility history of a single entity: a hierarchical
// temporal partitioning whose leaves map spatial cells to record counts.
type History struct {
	Entity model.EntityID

	leaves  map[int64]map[geo.CellID]float64
	windows []int64 // sorted leaf window indices
	// stamps[k] is the store epoch at which windows[k] last gained a cell
	// (0 for windows built by Build). A window whose stamp has not moved
	// still holds the cells it held then, so a pair-level bin selection
	// made at or after that epoch is still valid; see Compiled.Stamps.
	stamps  []uint64
	numBins int
	numRecs int

	// version counts mutations of this history; the compiled read path
	// (compiled.go) uses it to detect stale per-entity views.
	version uint64

	// Lazily-built dyadic aggregation levels; levels[0] aliases leaves.
	// Guarded by mu so concurrent scorers can share one History.
	mu     sync.Mutex
	levels []map[int64]map[geo.CellID]float64
}

// newHistory builds a history from an entity's records. Point records add
// weight 1 to their containing cell; region records (RadiusKm > 0) are
// copied into every cell covering the region, each receiving an equal
// fraction of the record's unit weight (the Sec. 2.1 extension).
func newHistory(entity model.EntityID, recs []model.Record, w model.Windowing, level int) *History {
	h := &History{Entity: entity, leaves: make(map[int64]map[geo.CellID]float64)}
	add := func(win int64, cell geo.CellID, weight float64) {
		cells := h.leaves[win]
		if cells == nil {
			cells = make(map[geo.CellID]float64)
			h.leaves[win] = cells
		}
		if cells[cell] == 0 {
			h.numBins++
		}
		cells[cell] += weight
	}
	for _, r := range recs {
		win := w.Window(r.Unix)
		h.numRecs++
		if r.RadiusKm <= 0 {
			add(win, geo.CellIDFromLatLngLevel(r.LatLng, level), 1)
			continue
		}
		cover := geo.CoverCapCells(r.LatLng, r.RadiusKm, level)
		weight := 1 / float64(len(cover))
		for _, cell := range cover {
			add(win, cell, weight)
		}
	}
	h.windows = make([]int64, 0, len(h.leaves))
	for win := range h.leaves {
		h.windows = append(h.windows, win)
	}
	slices.Sort(h.windows)
	h.stamps = make([]uint64, len(h.windows))
	return h
}

// Windows returns the sorted leaf window indices with at least one record.
// The returned slice must not be modified.
func (h *History) Windows() []int64 { return h.windows }

// Version returns the history's mutation counter: 0 for a freshly built
// history, bumped by every Store.Add that touches the entity. The compiled
// scoring views (compiled.go) and the incremental LSH candidate index
// (internal/candidates) both key their stale-entity checks on it.
func (h *History) Version() uint64 { return h.version }

// CellsAt returns the cell→record-count map of the given leaf window (nil
// if the entity has no records there). The returned map must not be
// modified.
func (h *History) CellsAt(window int64) map[geo.CellID]float64 { return h.leaves[window] }

// NumBins returns |H_u|: the number of distinct time-location bins.
func (h *History) NumBins() int { return h.numBins }

// NumRecords returns the number of records aggregated into the history.
func (h *History) NumRecords() int { return h.numRecs }

// Bins calls fn for every time-location bin with its record count, in
// deterministic order (windows ascending, cells ascending).
func (h *History) Bins(fn func(Bin, float64)) {
	for _, win := range h.windows {
		cells := h.leaves[win]
		ids := make([]geo.CellID, 0, len(cells))
		for c := range cells {
			ids = append(ids, c)
		}
		slices.Sort(ids)
		for _, c := range ids {
			fn(Bin{Window: win, Cell: c}, cells[c])
		}
	}
}

// ensureLevels builds the dyadic aggregation levels up to the given height
// and returns the level slice. Level h holds, for each aligned group of
// 2^h consecutive windows, the merged cell→count map — exactly the
// "non-leaf nodes keep the occurrence counts of the cell ids in their
// sub-tree" structure of Fig. 1. Callers must read from the returned
// snapshot, never from h.levels: an interleaved Store.Add invalidates
// h.levels (sets it nil), and reading the field after the lock is dropped
// would race with that reset.
func (h *History) ensureLevels(height int) []map[int64]map[geo.CellID]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.levels) == 0 {
		h.levels = append(h.levels, h.leaves)
	}
	for len(h.levels) <= height {
		prev := h.levels[len(h.levels)-1]
		next := make(map[int64]map[geo.CellID]float64, (len(prev)+1)/2)
		for idx, cells := range prev {
			parent := floorDiv2(idx)
			dst := next[parent]
			if dst == nil {
				dst = make(map[geo.CellID]float64, len(cells))
				next[parent] = dst
			}
			for c, n := range cells {
				dst[c] += n
			}
		}
		h.levels = append(h.levels, next)
	}
	return h.levels
}

func floorDiv2(x int64) int64 {
	if x >= 0 {
		return x / 2
	}
	return -((-x + 1) / 2)
}

// DominatingCell returns the cell with the highest record count within the
// window range [start, end), using the canonical dyadic decomposition of
// the range over the aggregated tree levels. Ties break toward the smaller
// cell id so signatures are deterministic. ok is false when the entity has
// no records in the range.
func (h *History) DominatingCell(start, end int64) (cell geo.CellID, ok bool) {
	if start >= end || len(h.windows) == 0 {
		return 0, false
	}
	// Height needed: largest power of two that can appear in the
	// decomposition of a range of this length.
	height := 0
	for int64(1)<<uint(height+1) <= end-start {
		height++
	}
	levels := h.ensureLevels(height)

	var counts map[geo.CellID]float64
	addNode := func(level int, idx int64) {
		cells := levels[level][idx]
		if cells == nil {
			return
		}
		if counts == nil {
			counts = make(map[geo.CellID]float64, len(cells))
		}
		for c, n := range cells {
			counts[c] += n
		}
	}
	for start < end {
		level := 0
		// Grow the block while it stays aligned and inside the range.
		for level < height &&
			start&((int64(1)<<uint(level+1))-1) == 0 &&
			start+int64(1)<<uint(level+1) <= end {
			level++
		}
		// For negative starts the bit trick above is unsafe; fall back to
		// leaf accumulation (negative windows only occur in adversarial
		// inputs; all generators produce non-negative windows).
		if start < 0 {
			level = 0
		}
		addNode(level, start>>uint(level))
		start += int64(1) << uint(level)
	}
	if len(counts) == 0 {
		return 0, false
	}
	var best geo.CellID
	bestN := -1.0
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best, true
}

// dominatingCellNaive recomputes the dominating cell by scanning leaves;
// used by tests to validate the tree-based query.
func (h *History) dominatingCellNaive(start, end int64) (geo.CellID, bool) {
	counts := make(map[geo.CellID]float64)
	for _, win := range h.windows {
		if win < start || win >= end {
			continue
		}
		for c, n := range h.leaves[win] {
			counts[c] += n
		}
	}
	if len(counts) == 0 {
		return 0, false
	}
	var best geo.CellID
	bestN := -1.0
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best, true
}

// Store holds the mobility histories of one location dataset plus the
// dataset-level statistics used by the similarity score.
type Store struct {
	Name      string
	Windowing model.Windowing
	Level     int

	histories map[model.EntityID]*History
	entities  []model.EntityID

	binEntities map[Bin]int32
	avgBins     float64
	totalBins   int
	minWindow   int64
	maxWindow   int64
	hasData     bool

	// epoch versions the dataset-level IDF inputs (entity count and bin
	// frequencies). Any change invalidates every compiled view,
	// because the IDF weights baked into them may have shifted; see
	// compiled.go.
	epoch uint64

	// Compiled read path: per-entity flat views plus the dense cell-id
	// interner shared by all of them, with each interned cell's geometry
	// at the same index. compMu lets concurrent scorers take the read path
	// while lazy recompiles serialize on the write side.
	compMu    sync.RWMutex
	compiled  map[model.EntityID]*Compiled
	cellIndex map[geo.CellID]int32
	cellIDs   []geo.CellID
	cellGeom  []geo.CellGeom
}

// Build constructs the histories of every entity of the dataset at the
// given spatial level, under the given shared windowing.
func Build(d *model.Dataset, w model.Windowing, spatialLevel int) *Store {
	s := &Store{
		Name:        d.Name,
		Windowing:   w,
		Level:       spatialLevel,
		histories:   make(map[model.EntityID]*History),
		binEntities: make(map[Bin]int32),
		compiled:    make(map[model.EntityID]*Compiled),
		cellIndex:   make(map[geo.CellID]int32),
	}
	byEntity := d.ByEntity()
	s.entities = make([]model.EntityID, 0, len(byEntity))
	for e := range byEntity {
		s.entities = append(s.entities, e)
	}
	slices.Sort(s.entities)

	first := true
	for _, e := range s.entities {
		h := newHistory(e, byEntity[e], w, spatialLevel)
		s.histories[e] = h
		s.totalBins += h.numBins
		for win, cells := range h.leaves {
			if first || win < s.minWindow {
				s.minWindow = win
			}
			if first || win > s.maxWindow {
				s.maxWindow = win
			}
			first = false
			for c := range cells {
				s.binEntities[Bin{Window: win, Cell: c}]++
			}
		}
	}
	s.hasData = !first
	if len(s.entities) > 0 {
		s.avgBins = float64(s.totalBins) / float64(len(s.entities))
	}
	return s
}

// NumEntities returns the number of entities with a history.
func (s *Store) NumEntities() int { return len(s.entities) }

// Entities returns the sorted entity ids. The slice must not be modified.
func (s *Store) Entities() []model.EntityID { return s.entities }

// History returns the history of the given entity, or nil.
func (s *Store) History(e model.EntityID) *History { return s.histories[e] }

// AvgBins returns the average number of time-location bins per history.
func (s *Store) AvgBins() float64 { return s.avgBins }

// WindowRange returns the inclusive [min, max] leaf window indices across
// all histories; ok is false for an empty store.
func (s *Store) WindowRange() (minWin, maxWin int64, ok bool) {
	if len(s.entities) == 0 {
		return 0, 0, false
	}
	return s.minWindow, s.maxWindow, true
}

// Epoch returns the store's IDF-input version: it moves whenever a
// dataset-level score input changes — a new entity (|U| and the average
// history size shift), a new time-location bin (bin→entity frequencies and
// the average history size shift). While
// the epoch stands still, the score of any pair of unchanged histories is
// unchanged too: weight-only adds touch exactly the histories they land
// in. The compiled scoring views (compiled.go) and the root package's
// incremental edge store both key their invalidation on this counter, and
// window stamps (Compiled.Stamps) record the value it moved to when a
// window gained a cell.
func (s *Store) Epoch() uint64 { return s.epoch }

// IDF returns the inverse-document-frequency weight of a time-location bin
// (Eq. 3): log(|U| / |{u : bin ∈ H_u}|). Bins absent from the dataset get
// the maximum weight log(|U|), consistent with the limit of Eq. 3.
func (s *Store) IDF(b Bin) float64 {
	n := len(s.entities)
	if n == 0 {
		return 0
	}
	c := s.binEntities[b]
	if c == 0 {
		c = 1
	}
	return math.Log(float64(n) / float64(c))
}

// NormFactor returns the BM25-style length normalization L(u) of Eq. 2 for
// parameter b in [0, 1].
func (s *Store) NormFactor(e model.EntityID, b float64) float64 {
	h := s.histories[e]
	if h == nil || s.avgBins == 0 {
		return 1
	}
	return (1 - b) + b*float64(h.numBins)/s.avgBins
}
