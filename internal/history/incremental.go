package history

import (
	"slices"
	"sort"

	"slim/internal/geo"
	"slim/internal/model"
)

// Add ingests one record into the store incrementally, updating the
// entity's history, the bin→entity IDF index, the average-history-size
// statistic and the window range, and invalidating the history's cached
// aggregation levels. After any sequence of Add calls the store is
// indistinguishable from one built with Build on the concatenated records
// (see TestIncrementalAddMatchesBuild).
//
// Add supports the dynamic-feed setting the paper motivates (Sec. 1:
// "the scale and dynamic nature of location datasets"). It is not safe for
// concurrent use with readers; quiesce scoring before adding.
func (s *Store) Add(rec model.Record) {
	h := s.histories[rec.Entity]
	if h == nil {
		h = &History{Entity: rec.Entity, leaves: make(map[int64]map[geo.CellID]float64)}
		s.histories[rec.Entity] = h
		s.insertEntity(rec.Entity)
		s.epoch++ // |U| changed: every baked IDF weight is stale
	}
	prevBins := h.numBins
	h.version++ // invalidate this entity's compiled view

	win := s.Windowing.Window(rec.Unix)
	newWindow := h.leaves[win] == nil

	h.mu.Lock()
	h.levels = nil // invalidate cached aggregation levels
	h.mu.Unlock()

	gained := false
	addCell := func(cell geo.CellID, weight float64) {
		cells := h.leaves[win]
		if cells == nil {
			cells = make(map[geo.CellID]float64)
			h.leaves[win] = cells
		}
		if cells[cell] == 0 {
			h.numBins++
			s.binEntities[Bin{Window: win, Cell: cell}]++
			s.epoch++ // bin frequency changed: baked IDF weights are stale
			gained = true
		}
		cells[cell] += weight
	}
	h.numRecs++
	if rec.RadiusKm <= 0 {
		addCell(geo.CellIDFromLatLngLevel(rec.LatLng, s.Level), 1)
	} else {
		cover := geo.CoverCapCells(rec.LatLng, rec.RadiusKm, s.Level)
		weight := 1 / float64(len(cover))
		for _, cell := range cover {
			addCell(cell, weight)
		}
	}

	if newWindow {
		h.insertWindow(win)
	}
	if gained {
		h.stamps[h.windowIndex(win)] = s.epoch
	}
	s.totalBins += h.numBins - prevBins
	s.avgBins = float64(s.totalBins) / float64(len(s.entities))
	if !s.hasData {
		s.minWindow, s.maxWindow = win, win
		s.hasData = true
		return
	}
	if win < s.minWindow {
		s.minWindow = win
	}
	if win > s.maxWindow {
		s.maxWindow = win
	}
}

// insertEntity keeps the entity list sorted.
func (s *Store) insertEntity(e model.EntityID) {
	i := sort.Search(len(s.entities), func(k int) bool { return s.entities[k] >= e })
	s.entities = append(s.entities, "")
	copy(s.entities[i+1:], s.entities[i:])
	s.entities[i] = e
}

// insertWindow keeps the history's window list (and the parallel stamp
// list) sorted.
func (h *History) insertWindow(win int64) {
	i := h.windowIndex(win)
	h.windows = slices.Insert(h.windows, i, win)
	h.stamps = slices.Insert(h.stamps, i, 0)
}

// windowIndex returns the position of win in the sorted window list (or
// where it would be inserted).
func (h *History) windowIndex(win int64) int {
	return sort.Search(len(h.windows), func(k int) bool { return h.windows[k] >= win })
}
