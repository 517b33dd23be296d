package history

import (
	"math"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
)

func compiledTestStore(t testing.TB) *Store {
	t.Helper()
	recs := []model.Record{
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 100},
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.80, Lng: -122.27}, Unix: 1000},
		{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 120}, // same bin as first
		{Entity: "b", LatLng: geo.LatLng{Lat: 37.60, Lng: -122.38}, Unix: 500},
		{Entity: "b", LatLng: geo.LatLng{Lat: 37.61, Lng: -122.39}, Unix: 2000, RadiusKm: 1.5},
		{Entity: "c", LatLng: geo.LatLng{Lat: 34.05, Lng: -118.24}, Unix: 900},
	}
	d := model.Dataset{Name: "D", Records: recs}
	return Build(&d, model.Windowing{Epoch: 0, WidthSeconds: 900}, 12)
}

// TestCompiledViewMatchesBins checks the flat layout against the map walk:
// same windows, same cells in the same (sorted) order, same weights, IDF
// weights equal to the store's IDF, and per-window record sums consistent.
func TestCompiledViewMatchesBins(t *testing.T) {
	s := compiledTestStore(t)
	if n := s.Compile(); n != s.NumEntities() {
		t.Fatalf("first Compile recompiled %d entities, want %d", n, s.NumEntities())
	}
	for _, e := range s.Entities() {
		c, tab := s.CompiledView(e)
		ids := tab.IDs
		if c == nil {
			t.Fatalf("no compiled view for %s", e)
		}
		h := s.History(e)
		if len(c.Windows) != len(h.Windows()) {
			t.Fatalf("%s: %d compiled windows, want %d", e, len(c.Windows), len(h.Windows()))
		}
		k := 0
		wi := -1
		h.Bins(func(b Bin, count float64) {
			for wi < 0 || c.Windows[wi] != b.Window {
				wi++
			}
			if k >= int(c.Off[wi+1]) || k < int(c.Off[wi]) {
				t.Fatalf("%s: bin %d outside window %d range [%d,%d)", e, k, wi, c.Off[wi], c.Off[wi+1])
			}
			if got := ids[c.Cells[k]]; got != b.Cell {
				t.Fatalf("%s: compiled cell %v at %d, want %v", e, got, k, b.Cell)
			}
			if c.Counts[k] != count {
				t.Fatalf("%s: compiled count %v at %d, want %v", e, c.Counts[k], k, count)
			}
			if want := s.IDF(b); c.IDF[k] != want {
				t.Fatalf("%s: compiled IDF %v at %d, want %v", e, c.IDF[k], k, want)
			}
			k++
		})
		if k != h.NumBins() {
			t.Fatalf("%s: compiled %d bins, history has %d", e, k, h.NumBins())
		}
		for w := range c.Windows {
			var sum float64
			for b := c.Off[w]; b < c.Off[w+1]; b++ {
				sum += c.Counts[b]
			}
			if sum != c.WinRecs[w] {
				t.Fatalf("%s: WinRecs[%d] = %v, bins sum to %v", e, w, c.WinRecs[w], sum)
			}
		}
	}
}

// TestCompileInvalidation pins the recompilation granularity: clean stores
// recompile nothing, weight-only adds recompile one entity, and anything
// that can shift baked IDF weights (new bin, new entity, IDF total
// override) recompiles all.
func TestCompileInvalidation(t *testing.T) {
	s := compiledTestStore(t)
	all := s.NumEntities()
	s.Compile()
	if n := s.Compile(); n != 0 {
		t.Fatalf("clean Compile recompiled %d entities, want 0", n)
	}

	// Weight-only add: a duplicate of an existing record lands in an
	// existing bin, so only entity "a" goes stale.
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 110})
	if n := s.Compile(); n != 1 {
		t.Fatalf("weight-only add recompiled %d entities, want 1", n)
	}

	// New bin: bin frequencies changed, every baked IDF may be stale.
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 36.0, Lng: -121.0}, Unix: 50000})
	if n := s.Compile(); n != all {
		t.Fatalf("new-bin add recompiled %d entities, want %d", n, all)
	}

	// New entity: |U| changed.
	s.Add(model.Record{Entity: "z", LatLng: geo.LatLng{Lat: 37.0, Lng: -122.0}, Unix: 42})
	if n := s.Compile(); n != all+1 {
		t.Fatalf("new-entity add recompiled %d entities, want %d", n, all+1)
	}
}

// TestCompiledViewLazyRecompile checks that CompiledView alone (no explicit
// Compile call) serves fresh views after an Add.
func TestCompiledViewLazyRecompile(t *testing.T) {
	s := compiledTestStore(t)
	before, _ := s.CompiledView("a")
	if before == nil {
		t.Fatal("lazy CompiledView returned nil for a known entity")
	}
	binsBefore := len(before.Cells)
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 36.5, Lng: -121.5}, Unix: 90000})
	after, tab := s.CompiledView("a")
	ids := tab.IDs
	if after == before {
		t.Fatal("CompiledView returned the stale view after Add")
	}
	if len(after.Cells) != binsBefore+1 {
		t.Fatalf("recompiled view has %d bins, want %d", len(after.Cells), binsBefore+1)
	}
	// Dense indices must stay within the id table.
	for _, ci := range after.Cells {
		if int(ci) >= len(ids) {
			t.Fatalf("dense index %d outside id table of %d", ci, len(ids))
		}
	}
}

// TestCellTableGeometry pins the geometry table: exactly one entry per
// interned cell, each equal to the geometry geo.NewCellGeom derives from
// the id, and distances from it bit-identical to geo.CellDistanceKm.
func TestCellTableGeometry(t *testing.T) {
	s := compiledTestStore(t)
	s.Add(model.Record{Entity: "d", LatLng: geo.LatLng{Lat: 37.7, Lng: -122.5}, Unix: 40000, RadiusKm: 2})
	s.Compile()
	_, tab := s.CompiledView("a")
	if len(tab.IDs) != len(s.cellIndex) || len(tab.Geom) != len(s.cellIndex) {
		t.Fatalf("cell table has %d ids / %d geometries for %d interned cells",
			len(tab.IDs), len(tab.Geom), len(s.cellIndex))
	}
	for k, id := range tab.IDs {
		if tab.Geom[k] != geo.NewCellGeom(id) {
			t.Fatalf("geometry %d does not match cell %v", k, id)
		}
		for j, other := range tab.IDs {
			a, b := id, other
			ga, gb := tab.Geom[k], tab.Geom[j]
			if b < a {
				a, b, ga, gb = b, a, gb, ga
			}
			got, want := geo.CellDistanceKmGeom(a, b, ga, gb), geo.CellDistanceKm(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("distance(%v, %v) = %v from the table, %v from the ids", a, b, got, want)
			}
		}
	}
}

// TestWindowStamps pins the window stamps: Build leaves every window at 0,
// a weight-only add moves no stamp, and a new cell stamps exactly its
// window with the store epoch it moved to — also when the cell lands in
// an older window than the newest.
func TestWindowStamps(t *testing.T) {
	s := compiledTestStore(t)
	stamps := func(e model.EntityID) []uint64 {
		c, _ := s.CompiledView(e)
		return c.Stamps
	}
	for _, st := range stamps("a") {
		if st != 0 {
			t.Fatalf("built window stamped %d, want 0", st)
		}
	}
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 37.77, Lng: -122.42}, Unix: 110})
	if got := stamps("a"); !slices.Equal(got, []uint64{0, 0}) {
		t.Fatalf("weight-only add stamped %v", got)
	}
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 36.0, Lng: -121.0}, Unix: 50000})
	e1 := s.Epoch()
	if got := stamps("a"); !slices.Equal(got, []uint64{0, 0, e1}) {
		t.Fatalf("new window stamped %v, want [0 0 %d]", got, e1)
	}
	// A late record with a new cell in the oldest window.
	s.Add(model.Record{Entity: "a", LatLng: geo.LatLng{Lat: 35.0, Lng: -120.0}, Unix: 130})
	e2 := s.Epoch()
	if got := stamps("a"); !slices.Equal(got, []uint64{e2, 0, e1}) {
		t.Fatalf("late cell stamped %v, want [%d 0 %d]", got, e2, e1)
	}
	if got := stamps("b"); !slices.Equal(got, []uint64{0, 0}) {
		t.Fatalf("untouched entity's stamps moved: %v", got)
	}
}

// BenchmarkCompile measures a full store compilation after an
// IDF-epoch-invalidating change — the worst-case recompile a relink pays
// after ingest creates new bins.
func BenchmarkCompile(b *testing.B) {
	var recs []model.Record
	for e := 0; e < 64; e++ {
		for k := 0; k < 200; k++ {
			recs = append(recs, model.Record{
				Entity: model.EntityID(rune('A' + e)),
				LatLng: geo.LatLng{Lat: 37.5 + float64(k%20)*0.01, Lng: -122.5 + float64((e+k)%17)*0.01},
				Unix:   int64(900 * k),
			})
		}
	}
	d := model.Dataset{Name: "bench", Records: recs}
	s := Build(&d, model.Windowing{Epoch: 0, WidthSeconds: 900}, 12)
	s.Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.epoch++ // invalidate every compiled view
		s.Compile()
	}
}
