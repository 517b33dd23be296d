package similarity

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"slim/internal/history"
	"slim/internal/model"
)

// TestScoreSelectedMatchesScore is the selection cache's exactness gate
// at the kernel level. For every parameter variant it replays the parity
// workload into two stores in time order, keeping one Selection per cross
// pair across batches. Batches bring new windows, late records that add a
// cell to an old window, region records, and new entities on both sides.
// After every batch, ScoreSelected must equal an uncached Score bit for
// bit with the same alibi count, cache exactly the pair's common windows,
// and account every common window as either re-selected or replayed.
func TestScoreSelectedMatchesScore(t *testing.T) {
	dsE, dsI := parityWorkload(t)
	byTime := func(a, b model.Record) int { return int(a.Unix - b.Unix) }
	slices.SortStableFunc(dsE.Records, byTime)
	slices.SortStableFunc(dsI.Records, byTime)
	wnd := model.NewWindowing(900, &dsE, &dsI)

	for variant, p := range paramVariants() {
		t.Run(variant, func(t *testing.T) {
			cutE, cutI := len(dsE.Records)*3/5, len(dsI.Records)*3/5
			e := history.Build(&model.Dataset{Name: "E", Records: dsE.Records[:cutE]}, wnd, 12)
			i := history.Build(&model.Dataset{Name: "I", Records: dsI.Records[:cutI]}, wnd, 12)
			cached, ref := NewScorer(e, i, p), NewScorer(e, i, p)
			sels := make(map[[2]model.EntityID]*Selection)

			check := func(step string) (selected, replayed int64) {
				t.Helper()
				before, refBefore := cached.Stats(), ref.Stats()
				var common int64
				for _, u := range e.Entities() {
					for _, v := range i.Entities() {
						key := [2]model.EntityID{u, v}
						sel := sels[key]
						if sel == nil {
							sel = new(Selection)
							sels[key] = sel
						}
						got, want := cached.ScoreSelected(sel, u, v), ref.Score(u, v)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: ScoreSelected(%s, %s) = %v, Score %v", step, u, v, got, want)
						}
						n := 0
						forEachCommonWindow(e.History(u).Windows(), i.History(v).Windows(), func(int64) { n++ })
						if sel.NumWindows() != n {
							t.Fatalf("%s: selection of (%s, %s) caches %d windows, pair has %d",
								step, u, v, sel.NumWindows(), n)
						}
						common += int64(n)
					}
				}
				after, refAfter := cached.Stats(), ref.Stats()
				selected = after.WindowsSelected - before.WindowsSelected
				replayed = after.WindowsReplayed - before.WindowsReplayed
				if selected+replayed != common {
					t.Fatalf("%s: %d selected + %d replayed windows, pairs have %d", step, selected, replayed, common)
				}
				if a, r := after.AlibiBinPairs-before.AlibiBinPairs, refAfter.AlibiBinPairs-refBefore.AlibiBinPairs; a != r {
					t.Fatalf("%s: %d alibi pairs, uncached %d", step, a, r)
				}
				return selected, replayed
			}

			if _, replayed := check("preload"); replayed != 0 {
				t.Fatalf("empty selections replayed %d windows", replayed)
			}
			restE, restI := dsE.Records[cutE:], dsI.Records[cutI:]
			const batches = 6
			var totalReplayed int64
			for b := 0; b < batches; b++ {
				hiE, hiI := len(restE)*(b+1)/batches, len(restI)*(b+1)/batches
				for _, r := range restE[len(restE)*b/batches : hiE] {
					e.Add(r)
				}
				for _, r := range restI[len(restI)*b/batches : hiI] {
					i.Add(r)
				}
				switch b {
				case 1:
					// Late records: a new cell in each side's oldest window.
					late := dsE.Records[0]
					late.LatLng.Lat += 0.4
					e.Add(late)
					late = dsI.Records[0]
					late.LatLng.Lng += 0.4
					late.RadiusKm = 0.5
					i.Add(late)
				case 3:
					// A new entity on each side (N moves on both).
					for k := 0; k < 4; k++ {
						r := dsE.Records[cutE+k]
						r.Entity = "fresh-e"
						e.Add(r)
						r = dsI.Records[cutI+k]
						r.Entity = "fresh-i"
						i.Add(r)
					}
				}
				selected, replayed := check(fmt.Sprintf("batch %d", b))
				if selected == 0 {
					t.Fatalf("batch %d re-selected nothing", b)
				}
				totalReplayed += replayed
			}
			if totalReplayed == 0 {
				t.Fatal("no window was ever replayed")
			}
		})
	}
}
