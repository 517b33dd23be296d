package history

import (
	"slices"

	"slim/internal/geo"
	"slim/internal/model"
)

// Compiled is the flat, read-optimized view of one entity's history that
// the similarity scorer runs on. Where History stores per-window
// map[CellID]float64 leaves, Compiled lays the same bins out as parallel
// arrays: window k's bins occupy Cells/Counts/IDF[Off[k]:Off[k+1]], sorted
// by ascending cell id — exactly the iteration order the map-based scorer
// derived per call with sortedCells. Cell ids are interned into the owning
// Store's dense index space (see Store.CompiledView), so scorers look a
// cell's id and geometry up by small integer in the store's CellTable.
//
// A Compiled view is immutable once published. Store.Add invalidates it by
// bumping version counters, never by mutating it, so a scorer holding a
// view keeps reading consistent (if stale) data.
type Compiled struct {
	// Windows are the sorted leaf window indices (a copy: the history's
	// own window slice is shifted in place by later Adds, which would
	// corrupt a held view rather than merely staling it).
	Windows []int64
	// Off bounds each window's bin range: window k owns indices
	// [Off[k], Off[k+1]) of the parallel arrays below.
	Off []int32
	// Cells holds store-dense cell indices, ascending cell-id order within
	// each window.
	Cells []int32
	// Counts holds the record weight of each bin.
	Counts []float64
	// IDF holds the owning store's IDF weight (Eq. 3) of each bin, baked in
	// at compile time.
	IDF []float64
	// WinRecs[k] is the summed record weight of window k, accumulated in
	// bin order (so it is bit-identical to the map scorer's per-window sum).
	WinRecs []float64
	// Stamps[k] is the store epoch at which window k last gained a cell.
	// While it stays at or below the epoch a pair's bin selection was made
	// at, window k still holds the cells (in the same order) that selection
	// indexed.
	Stamps []uint64

	storeEpoch  uint64
	histVersion uint64
}

// current reports whether the view is still valid for the given store
// state and history.
func (c *Compiled) current(epoch uint64, h *History) bool {
	return c != nil && c.storeEpoch == epoch && c.histVersion == h.version
}

// Compile refreshes the compiled read path of every entity whose history
// changed — or whose dataset-level IDF inputs changed — since its last
// compilation, and returns how many entities were recompiled. Weight-only
// updates (records landing in existing bins) dirty just the touched
// entities; a new bin or a new entity moves the store's IDF epoch and
// recompiles everything, because the IDF weights baked into every view
// may have shifted.
//
// RunEdges calls Compile before fanning scoring across workers, so the
// parallel phase only ever takes the cheap read-lock path of CompiledView.
func (s *Store) Compile() int {
	s.compMu.Lock()
	defer s.compMu.Unlock()
	n := 0
	for _, e := range s.entities {
		h := s.histories[e]
		if s.compiled[e].current(s.epoch, h) {
			continue
		}
		s.compileLocked(e, h)
		n++
	}
	return n
}

// CellTable is a store's dense cell-index table: IDs[k] is the k-th
// interned cell and Geom[k] its geometry (center and circumradius, as
// geo.NewCellGeom computes them), so distance evaluation never re-derives
// a cell's center. Both slices are append-only and always equally long.
type CellTable struct {
	IDs  []geo.CellID
	Geom []geo.CellGeom
}

// CompiledView returns the up-to-date compiled history of e (nil if e is
// unknown) together with the store's cell table. A stale or missing view
// is compiled on the spot, so callers need no prior Compile; the table is
// append-only, so indices held by any returned view remain valid in every
// later table. Safe for concurrent use by scorers; like all reads, not
// safe concurrently with Add.
func (s *Store) CompiledView(e model.EntityID) (*Compiled, CellTable) {
	h := s.histories[e]
	if h == nil {
		return nil, CellTable{}
	}
	s.compMu.RLock()
	c := s.compiled[e]
	if c.current(s.epoch, h) {
		tab := s.cellTableLocked()
		s.compMu.RUnlock()
		return c, tab
	}
	s.compMu.RUnlock()

	s.compMu.Lock()
	c = s.compiled[e]
	if !c.current(s.epoch, h) {
		c = s.compileLocked(e, h)
	}
	tab := s.cellTableLocked()
	s.compMu.Unlock()
	return c, tab
}

func (s *Store) cellTableLocked() CellTable {
	return CellTable{IDs: s.cellIDs, Geom: s.cellGeom}
}

// compileLocked rebuilds the compiled view of one entity. Callers hold
// compMu. A fresh Compiled is always allocated: concurrent scorers may
// still hold the previous view.
func (s *Store) compileLocked(e model.EntityID, h *History) *Compiled {
	c := &Compiled{
		Windows:     slices.Clone(h.windows),
		Off:         make([]int32, 1, len(h.windows)+1),
		Cells:       make([]int32, 0, h.numBins),
		Counts:      make([]float64, 0, h.numBins),
		IDF:         make([]float64, 0, h.numBins),
		WinRecs:     make([]float64, 0, len(h.windows)),
		Stamps:      slices.Clone(h.stamps),
		storeEpoch:  s.epoch,
		histVersion: h.version,
	}
	var cellBuf []geo.CellID
	for _, win := range h.windows {
		cells := h.leaves[win]
		cellBuf = cellBuf[:0]
		for id := range cells {
			cellBuf = append(cellBuf, id)
		}
		slices.Sort(cellBuf)
		var recs float64
		for _, id := range cellBuf {
			cnt := cells[id]
			c.Cells = append(c.Cells, s.internLocked(id))
			c.Counts = append(c.Counts, cnt)
			c.IDF = append(c.IDF, s.IDF(Bin{Window: win, Cell: id}))
			recs += cnt
		}
		c.WinRecs = append(c.WinRecs, recs)
		c.Off = append(c.Off, int32(len(c.Cells)))
	}
	s.compiled[e] = c
	return c
}

// internLocked maps a cell id to its dense index, assigning the next index
// (and computing the cell's geometry) on first sight. Callers hold compMu
// for writing.
func (s *Store) internLocked(id geo.CellID) int32 {
	if i, ok := s.cellIndex[id]; ok {
		return i
	}
	i := int32(len(s.cellIDs))
	s.cellIndex[id] = i
	s.cellIDs = append(s.cellIDs, id)
	s.cellGeom = append(s.cellGeom, geo.NewCellGeom(id))
	return i
}
