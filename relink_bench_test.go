package slim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// relinkFixture builds the standard streaming-relink scenario for the
// edge-store benchmarks: the datagen Cab workload loaded into a
// brute-force Linker (every cross pair is a candidate, so scoring cost is
// undiluted by the LSH filter), warmed with one full Run, plus the E-side
// records grouped by entity so bursts can re-observe real visits.
func relinkFixture(tb testing.TB, taxis int) (*Linker, map[EntityID][]Record) {
	tb.Helper()
	ground := GenerateCab(CabOptions{NumTaxis: taxis, Days: 2, MeanRecordIntervalSec: 360, Seed: 99})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	lk, err := NewLinker(w.E, w.I, Defaults())
	if err != nil {
		tb.Fatal(err)
	}
	byEntity := make(map[EntityID][]Record)
	for _, r := range w.E.Records {
		byEntity[r.Entity] = append(byEntity[r.Entity], r)
	}
	lk.Run()
	return lk, byEntity
}

// weightOnlyBurst re-observes ~1% of the E entities by duplicating a few
// of their existing records — records landing in bins that already exist,
// the only ingest that leaves both IDF epochs untouched, so the next Run
// takes the pair-level delta path. This is the streaming steady state:
// entities keep visiting the places they already visit.
func weightOnlyBurst(lk *Linker, byEntity map[EntityID][]Record, k int) {
	entities := lk.EntitiesE()
	n := len(entities) / 100
	if n < 1 {
		n = 1
	}
	for j := 0; j < n; j++ {
		id := entities[(j*100+k*7)%len(entities)]
		recs := byEntity[id]
		for r := 0; r < 4 && r < len(recs); r++ {
			lk.AddE(recs[(k*5+r)%len(recs)])
		}
	}
}

// BenchmarkRelinkIncrementalDirtyBurst measures a full Run (delta rescore
// + matching + thresholding) after a ~1% weight-only dirty burst — the
// steady-state relink cost of a streaming service.
func BenchmarkRelinkIncrementalDirtyBurst(b *testing.B) {
	lk, byEntity := relinkFixture(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		weightOnlyBurst(lk, byEntity, i)
		b.StartTimer()
		res := lk.Run()
		if res.Stats.EdgeStore.FullRescore {
			b.Fatal("burst unexpectedly forced a full rescore; the benchmark must measure the delta path")
		}
	}
}

// BenchmarkRelinkFullRescore measures the path the edge store replaced:
// the identical burst relinked by rescanning every candidate pair (the
// store's cache is invalidated before each Run, exactly what every Run
// paid before the edge store existed).
func BenchmarkRelinkFullRescore(b *testing.B) {
	lk, byEntity := relinkFixture(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		weightOnlyBurst(lk, byEntity, i)
		lk.edges.built = false // invalidate: force the pre-edge-store rescan
		b.StartTimer()
		res := lk.Run()
		if !res.Stats.EdgeStore.FullRescore {
			b.Fatal("full-rescore benchmark took the delta path")
		}
	}
}

// TestRelinkIncrementalSpeedupOverFullRescore is the acceptance gate: on
// the standard workload, relinking after a ~1% weight-only dirty burst
// via the edge store's pair-level delta must be at least 5x faster than
// the full candidate rescan it replaced (in practice the gap tracks the
// dirty fraction — one to two orders of magnitude; 5x leaves headroom for
// noisy CI machines). Every measured pair of runs is also checked for
// bit-identical output, so the gate cannot pass by skipping work.
func TestRelinkIncrementalSpeedupOverFullRescore(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	lk, byEntity := relinkFixture(t, 64)
	const reps = 7
	var incr, full []time.Duration
	for k := 0; k < reps; k++ {
		weightOnlyBurst(lk, byEntity, k)
		start := time.Now()
		res := lk.Run()
		incr = append(incr, time.Since(start))
		es := res.Stats.EdgeStore
		if es.FullRescore || es.Retained == 0 {
			t.Fatalf("rep %d did not take the delta path: %+v", k, es)
		}

		lk.edges.built = false
		start = time.Now()
		resFull := lk.Run()
		full = append(full, time.Since(start))
		if !resFull.Stats.EdgeStore.FullRescore {
			t.Fatalf("rep %d: forced rescan took the delta path", k)
		}
		if !slices.Equal(res.Links, resFull.Links) || !slices.Equal(res.Matched, resFull.Matched) {
			t.Fatalf("rep %d: delta relink output differs from full rescore", k)
		}
	}
	med := func(ds []time.Duration) time.Duration {
		s := slices.Clone(ds)
		slices.Sort(s)
		return s[len(s)/2]
	}
	mi, mf := med(incr), med(full)
	speedup := float64(mf) / float64(mi)
	t.Logf("median incremental relink %v, median full rescore %v: %.1fx", mi, mf, speedup)
	if speedup < 5 {
		t.Fatalf("incremental relink only %.1fx faster than full rescore (median %v vs %v); gate requires >= 5x",
			speedup, mi, mf)
	}
}

// timeOrderedFeed is the streaming-relink scenario of a live feed: the
// standard Cab workload (as in relinkFixture) split at 75% of its time
// span, the prefix preloaded into a brute-force Linker and linked once,
// then one warm-up burst streamed and linked so every candidate pair holds
// a cached selection. Bursts are 1% of the workload's records, in arrival
// order; unionE/unionI hold everything the linker has ingested, for cold
// relinks.
type timeOrderedFeed struct {
	lk             *Linker
	cfg            Config
	unionE, unionI []Record
	rest           []streamedRecord
	burst          int
}

func newTimeOrderedFeed(tb testing.TB, taxis int) *timeOrderedFeed {
	tb.Helper()
	ground := GenerateCab(CabOptions{NumTaxis: taxis, Days: 2, MeanRecordIntervalSec: 360, Seed: 99})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	preE, preI, rest := timeOrderedStream(w, 0.75)
	f := &timeOrderedFeed{
		cfg:    Defaults(),
		unionE: preE,
		unionI: preI,
		rest:   rest,
		burst:  max((len(w.E.Records)+len(w.I.Records))/100, 1),
	}
	f.cfg.MinRecords = -1 // keep every entity, so cold relinks see the same sets
	lk, err := NewLinker(Dataset{Name: "E", Records: preE}, Dataset{Name: "I", Records: preI}, f.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f.lk = lk
	lk.Run()
	f.next()
	lk.Run()
	return f
}

// next streams the next burst into the linker; it reports false once the
// feed cannot fill a whole burst.
func (f *timeOrderedFeed) next() bool {
	if len(f.rest) < f.burst {
		return false
	}
	for _, sr := range f.rest[:f.burst] {
		if sr.isE {
			f.lk.AddE(sr.rec)
			f.unionE = append(f.unionE, sr.rec)
		} else {
			f.lk.AddI(sr.rec)
			f.unionI = append(f.unionI, sr.rec)
		}
	}
	f.rest = f.rest[f.burst:]
	return true
}

// cold links everything the feed has delivered from scratch.
func (f *timeOrderedFeed) cold(tb testing.TB) Result {
	tb.Helper()
	lk, err := NewLinker(Dataset{Name: "E", Records: f.unionE}, Dataset{Name: "I", Records: f.unionI}, f.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return lk.Run()
}

// BenchmarkRelinkTimeOrderedBurst measures a full Run after a 1% burst of
// time-ordered records — new windows and new bins every burst, so every
// run is an epoch full rescore, served by replaying cached selections.
func BenchmarkRelinkTimeOrderedBurst(b *testing.B) {
	f := newTimeOrderedFeed(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if !f.next() {
			f = newTimeOrderedFeed(b, 64)
			f.next()
		}
		b.StartTimer()
		res := f.lk.Run()
		if !res.Stats.EdgeStore.FullRescore {
			b.Fatal("time-ordered burst took the delta path; the benchmark must measure the replayed full rescore")
		}
	}
}

// TestRelinkTimeOrderedReselectsOnlyNewWindows is the selection cache's
// work gate (deterministic, not timed): over 20 time-ordered 1% bursts on
// the 64-taxi feed, at most 5% of the scored pairs' common windows may be
// re-selected — the rest must be replayed from cached selections — and
// every result must be bit-identical to a cold relink of the same
// records.
func TestRelinkTimeOrderedReselectsOnlyNewWindows(t *testing.T) {
	f := newTimeOrderedFeed(t, 64)
	const bursts = 20
	var reselected, replayed int64
	for b := 0; b < bursts; b++ {
		if !f.next() {
			t.Fatalf("feed ran dry after %d bursts", b)
		}
		got := f.lk.Run()
		requireSameResult(t, fmt.Sprintf("burst %d", b), got, f.cold(t))
		reselected += got.Stats.WindowsReselected
		replayed += got.Stats.WindowsReplayed
	}
	common := reselected + replayed
	share := float64(reselected) / float64(common)
	var windows, terms int
	for _, sel := range f.lk.edges.sel {
		windows += sel.NumWindows()
		terms += sel.NumTerms()
	}
	pairs := float64(len(f.lk.edges.sel))
	t.Logf("%d bursts: %d of %d common windows re-selected (%.2f%%); per pair %.0f cached windows, %.0f terms, %.0f selection bytes",
		bursts, reselected, common, 100*share, float64(windows)/pairs, float64(terms)/pairs,
		float64(f.lk.EdgeStoreStats().SelectionBytes)/pairs)
	if common == 0 || share > 0.05 {
		t.Fatalf("re-selected %d of %d common windows (%.2f%%); gate allows at most 5%%", reselected, common, 100*share)
	}
}
