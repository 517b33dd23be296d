package slim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slim/internal/lsh"
)

// sameLinksBits reports whether two link lists are bit-identical:
// same pairs in the same order with Float64bits-equal scores.
func sameLinksBits(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// requireSameResult asserts two Run results are bit-identical in
// everything the edge store and publish tail are responsible for: the
// retained/rescored edge set (via Matched, which is the full
// positive-edge matching), the published links, and the thresholding
// derived from them — scores and threshold compared via Float64bits, so
// even a last-ulp divergence between the incremental and from-scratch
// pipelines fails. Work counters (bin/record comparisons) are
// deliberately excluded — saving that work is the whole point of the
// incremental path.
func requireSameResult(t *testing.T, step string, got, want Result) {
	t.Helper()
	if got.Stats.CandidatePairs != want.Stats.CandidatePairs {
		t.Fatalf("%s: candidate pairs %d, want %d", step, got.Stats.CandidatePairs, want.Stats.CandidatePairs)
	}
	if got.Stats.PositiveEdges != want.Stats.PositiveEdges {
		t.Fatalf("%s: positive edges %d, want %d", step, got.Stats.PositiveEdges, want.Stats.PositiveEdges)
	}
	if !sameLinksBits(got.Matched, want.Matched) {
		t.Fatalf("%s: matched links diverged (%d vs %d)", step, len(got.Matched), len(want.Matched))
	}
	if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) || got.ThresholdMethod != want.ThresholdMethod {
		t.Fatalf("%s: threshold %g (%s), want %g (%s)",
			step, got.Threshold, got.ThresholdMethod, want.Threshold, want.ThresholdMethod)
	}
	if !sameLinksBits(got.Links, want.Links) {
		t.Fatalf("%s: links diverged (%d vs %d)", step, len(got.Links), len(want.Links))
	}
}

// TestRelinkParityIncrementalVsFromScratch is the edge store's exactness
// gate: an incrementally maintained Linker fed interleaved E/I ingest
// bursts must produce Run output bit-identical to a from-scratch Linker
// built over the union records on the same pinned grid — across
// weight-only churn (the pair-level delta path), new-bin and new-entity
// bursts (IDF-epoch full rescores), window-range growth in both
// directions (candidate-grid epoch rebuilds), and point and region
// records. It also asserts that both the delta path and the full-rescore
// path actually ran, so parity cannot pass by rescoring everything every
// time.
func TestRelinkParityIncrementalVsFromScratch(t *testing.T) {
	scenarios := []struct {
		name string
		lsh  *LSHConfig
	}{
		{"brute", nil},
		// Signature level 13 != history level 12 exercises the separate
		// signature stores.
		{"lsh", &LSHConfig{Threshold: 0.2, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}},
	}
	for _, sc := range scenarios {
		for _, seed := range []int64{3, 19} {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := Defaults()
				cfg.LSH = sc.lsh

				ground := GenerateCab(CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: seed})
				w := SampleWorkload(&ground, SampleOptions{
					IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: seed + 1,
				})
				inc, err := NewLinker(w.E, w.I, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The union starts from the records the linker kept after
				// its MinRecords filter.
				fe := w.E.FilterMinRecords(cfg.MinRecords)
				fi := w.I.FilterMinRecords(cfg.MinRecords)
				unionE := slices.Clone(fe.Records)
				unionI := slices.Clone(fi.Records)
				lo, hi, _ := fe.TimeRange()

				// mutate applies one burst to the incremental linker and the
				// union records. Kinds: 0 = weight-only re-observations
				// (records duplicated into existing bins: the only churn that
				// leaves both IDF epochs untouched), 1 = new cells inside the
				// time range, 2/3 = range growth right/left, 4 = brand-new
				// entity pair. (Score changes without an epoch move cannot be
				// provoked from ingest — scores are pure functions of bin
				// sets, and any bin-set change moves an IDF epoch — so the
				// publish tail's partial-reuse path is covered by the
				// synthetic-delta parity suite in tail_test.go instead.)
				mutate := func(kind int) {
					switch kind {
					case 0:
						for k := 0; k < 6; k++ {
							r := unionE[rng.Intn(len(unionE))]
							inc.AddE(r)
							unionE = append(unionE, r)
							r = unionI[rng.Intn(len(unionI))]
							inc.AddI(r)
							unionI = append(unionI, r)
						}
					case 1:
						r := unionE[rng.Intn(len(unionE))]
						r.LatLng.Lat += 0.3 + rng.Float64()
						if rng.Intn(2) == 0 {
							r.RadiusKm = 0.5 + rng.Float64()
						}
						inc.AddE(r)
						unionE = append(unionE, r)
					case 2:
						r := unionI[rng.Intn(len(unionI))]
						hi += 86400
						r.Unix = hi
						inc.AddI(r)
						unionI = append(unionI, r)
					case 3:
						r := unionE[rng.Intn(len(unionE))]
						lo -= 86400
						r.Unix = lo
						inc.AddE(r)
						unionE = append(unionE, r)
					case 4:
						for k := 0; k < 8; k++ {
							unix := lo + rng.Int63n(hi-lo)
							re := NewRecord("fresh-e", 37.2+float64(k%3)*0.05, -121.9, unix)
							ri := NewRecord("fresh-i", 37.2+float64(k%3)*0.05, -121.9, unix+40)
							inc.AddE(re)
							inc.AddI(ri)
							unionE = append(unionE, re)
							unionI = append(unionI, ri)
						}
					}
				}

				sawDelta, sawFull := false, false
				sawTailReuse := false
				kinds := []int{0, 0, 2, 0, 1, 3, 4, 0}
				var last Result
				for burst, kind := range kinds {
					mutate(kind)
					if rng.Intn(2) == 0 {
						// Force a mid-cycle candidate refresh so the edge
						// store's pending delta survives being merged across
						// several refreshes before one Run consumes it.
						_ = inc.NumCandidatePairs()
						mutate(0)
					}
					got := inc.Run()
					es := got.Stats.EdgeStore
					if es == nil {
						t.Fatal("run stats carry no edge-store block")
					}
					if es.FullRescore {
						sawFull = true
					} else if es.Retained > 0 {
						sawDelta = true
						if es.Rescored+es.Retained < got.Stats.CandidatePairs {
							t.Fatalf("burst %d: rescored %d + retained %d < candidates %d",
								burst, es.Rescored, es.Retained, got.Stats.CandidatePairs)
						}
					}
					if ts := inc.PublishTailStats(); ts != nil &&
						!ts.LastFull && ts.ReusedPrefixLen > 0 {
						sawTailReuse = true
					}
					fresh, err := NewLinker(
						Dataset{Name: "E", Records: unionE},
						Dataset{Name: "I", Records: unionI},
						cfg,
					)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("burst %d (kind %d)", burst, kind), got, fresh.Run())
					last = got
				}
				if !sawDelta || !sawFull {
					t.Fatalf("workload must exercise both paths: delta=%v full=%v", sawDelta, sawFull)
				}
				if !sawTailReuse {
					t.Fatal("no delta burst reused the tail's matched prefix")
				}

				// A run with no ingest at all retains everything — and the
				// publish tail must reuse the entire matched prefix and the
				// cached threshold fit rather than redoing either.
				clean := inc.Run()
				es := clean.Stats.EdgeStore
				if es.Rescored != 0 || es.FullRescore || es.Retained != clean.Stats.CandidatePairs {
					t.Fatalf("clean run rescored work: %+v", es)
				}
				requireSameResult(t, "clean rerun", clean, last)
				ts := inc.PublishTailStats()
				if ts == nil {
					t.Fatal("greedy runs must maintain a publish tail")
				}
				if ts.Applies == 0 || ts.FullRebuilds == 0 {
					t.Fatalf("workload must exercise both tail paths: %+v", ts)
				}
				if int(ts.ReusedPrefixLen) != len(clean.Matched) || ts.SuffixWalked != 0 {
					t.Fatalf("clean rerun must reuse the whole matched prefix: %+v (matched %d)",
						ts, len(clean.Matched))
				}
				if ts.ThresholdReuses == 0 {
					t.Fatalf("clean rerun must reuse the cached threshold fit: %+v", ts)
				}
			})
		}
	}
}

// streamedRecord is one record of a time-ordered feed and the dataset it
// arrives on.
type streamedRecord struct {
	rec Record
	isE bool
}

// timeOrderedStream splits a workload at the given fraction of its time
// span: the records before the cut preload a linker, the rest arrive in
// time order with E and I merged, the way a live feed delivers them.
func timeOrderedStream(w SampledWorkload, frac float64) (preE, preI []Record, rest []streamedRecord) {
	loE, hiE, _ := w.E.TimeRange()
	loI, hiI, _ := w.I.TimeRange()
	lo, hi := min(loE, loI), max(hiE, hiI)
	cut := lo + int64(frac*float64(hi-lo))
	for _, r := range w.E.Records {
		if r.Unix < cut {
			preE = append(preE, r)
		} else {
			rest = append(rest, streamedRecord{r, true})
		}
	}
	for _, r := range w.I.Records {
		if r.Unix < cut {
			preI = append(preI, r)
		} else {
			rest = append(rest, streamedRecord{r, false})
		}
	}
	slices.SortStableFunc(rest, func(a, b streamedRecord) int { return int(a.rec.Unix - b.rec.Unix) })
	return preE, preI, rest
}

// requireSelectionBound asserts the selection cache's bound: every entry
// belongs to a current candidate pair, after a full rescore there is
// exactly one entry per candidate pair, and SelectionBytes equals a
// recount of the entries.
func requireSelectionBound(t *testing.T, lk *Linker, step string) {
	t.Helper()
	cands := make(map[lsh.Pair]bool)
	for _, p := range lk.CandidatePairs() {
		cands[p] = true
	}
	var recount int64
	for p, sel := range lk.edges.sel {
		if !cands[p] {
			t.Fatalf("%s: selection cached for non-candidate pair %v", step, p)
		}
		recount += selectionEntryOverheadBytes + sel.Bytes()
	}
	if got := lk.EdgeStoreStats().SelectionBytes; got != recount {
		t.Fatalf("%s: SelectionBytes %d, recount %d", step, got, recount)
	}
	if lk.edges.lastFull && len(lk.edges.sel) != len(cands) {
		t.Fatalf("%s: %d selections after a full rescore of %d candidate pairs", step, len(lk.edges.sel), len(cands))
	}
}

// TestRelinkParityTimeOrderedBursts is the selection cache's exactness
// gate at the linker level: a preloaded Linker is fed the rest of a
// workload in time-ordered bursts — new windows every burst, a late
// record adding a cell to an old window on each side mid-sequence, a new
// entity on each side, and region records (multi-cell windows) — and
// after every Run its result must be bit-identical to a cold NewLinker +
// Run over the same records. The brute-force run covers every scoring
// ablation; the LSH run covers candidate churn, where selections must
// leave with their pairs (requireSelectionBound).
func TestRelinkParityTimeOrderedBursts(t *testing.T) {
	lshCfg := &LSHConfig{Threshold: 0.2, StepWindows: 48, SpatialLevel: 13, NumBuckets: 1 << 14}
	scenarios := []struct {
		name string
		lsh  *LSHConfig
		abl  Ablation
	}{
		{"brute", nil, Ablation{}},
		{"lsh", lshCfg, Ablation{}},
		{"all-pairs", nil, Ablation{AllPairs: true}},
		{"no-mfn", nil, Ablation{DisableMFN: true}},
		{"no-idf", nil, Ablation{DisableIDF: true}},
		{"no-norm", nil, Ablation{DisableNorm: true}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := Defaults()
			cfg.LSH = sc.lsh
			cfg.Ablation = sc.abl
			// Keep every entity, so a cold linker over the same records
			// sees exactly the streamed entity sets.
			cfg.MinRecords = -1

			ground := GenerateCab(CabOptions{NumTaxis: 14, Days: 2, MeanRecordIntervalSec: 420, Seed: 23})
			w := SampleWorkload(&ground, SampleOptions{
				IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 24,
			})
			for _, recs := range [][]Record{w.E.Records, w.I.Records} {
				for k := range recs {
					if k%9 == 0 {
						recs[k].RadiusKm = 0.4 + 0.2*float64(k%3)
					}
				}
			}
			preE, preI, rest := timeOrderedStream(w, 0.6)
			inc, err := NewLinker(Dataset{Name: "E", Records: preE}, Dataset{Name: "I", Records: preI}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc.Run()
			unionE, unionI := slices.Clone(preE), slices.Clone(preI)
			add := func(r Record, isE bool) {
				if isE {
					inc.AddE(r)
					unionE = append(unionE, r)
				} else {
					inc.AddI(r)
					unionI = append(unionI, r)
				}
			}

			const bursts = 8
			var replayed int64
			churn := false
			prev := make(map[lsh.Pair]bool)
			for b := 0; b < bursts; b++ {
				chunk := rest[len(rest)*b/bursts : len(rest)*(b+1)/bursts]
				for _, sr := range chunk {
					add(sr.rec, sr.isE)
				}
				switch b {
				case 2:
					// Late records: a new cell in an old window on each side.
					r := preE[len(preE)/3]
					r.LatLng.Lat += 0.5
					add(r, true)
					r = preI[len(preI)/3]
					r.LatLng.Lng += 0.5
					r.RadiusKm = 0.6
					add(r, false)
				case 4:
					// A new entity on each side, moving both stores' N.
					for k, sr := range chunk[:8] {
						r := sr.rec
						r.Entity = "fresh-e"
						r.Unix += int64(k)
						add(r, true)
						r.Entity = "fresh-i"
						r.Unix += 40
						add(r, false)
					}
				}
				got := inc.Run()
				step := fmt.Sprintf("burst %d", b)
				fresh, err := NewLinker(Dataset{Name: "E", Records: unionE}, Dataset{Name: "I", Records: unionI}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, step, got, fresh.Run())
				requireSelectionBound(t, inc, step)
				replayed += got.Stats.WindowsReplayed
				if got.Stats.WindowsReselected == 0 {
					t.Fatalf("%s: new windows arrived but none was re-selected", step)
				}

				cur := make(map[lsh.Pair]bool)
				for _, p := range inc.CandidatePairs() {
					cur[p] = true
				}
				for p := range prev {
					if !cur[p] {
						churn = true
					}
				}
				prev = cur
			}
			if replayed == 0 {
				t.Fatal("no window was ever replayed from a cached selection")
			}
			if sc.lsh != nil && !churn {
				t.Fatal("LSH workload never removed a candidate pair")
			}
		})
	}
}

// TestLinkDatasetsWorkCountersPinned pins the one-shot pipeline's work
// counters on the standard fixture (the relinkFixture workload, brute
// force and LSH) to their values before selection caching existed, so
// the work measure behind the paper's Fig. 4d/5d cannot drift: a one-shot
// linkage selects every common window, replays none, and leaves no cached
// selection behind.
func TestLinkDatasetsWorkCountersPinned(t *testing.T) {
	ground := GenerateCab(CabOptions{NumTaxis: 64, Days: 2, MeanRecordIntervalSec: 360, Seed: 99})
	w := SampleWorkload(&ground, SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	cases := []struct {
		name                                  string
		lsh                                   *LSHConfig
		cands, pos, binCmp, recCmp, alibiBins int64
	}{
		{"brute", nil, 1764, 1185, 375582, 531629, 88587},
		{"lsh", &LSHConfig{Threshold: 0.2, StepWindows: 48, SpatialLevel: 12, NumBuckets: 1 << 14}, 22, 21, 5873, 8602, 290},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Defaults()
			cfg.LSH = c.lsh
			lk, err := NewLinker(w.E, w.I, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := lk.Run().Stats
			got := [5]int64{st.CandidatePairs, st.PositiveEdges, st.BinComparisons, st.RecordComparisons, st.AlibiBinPairs}
			want := [5]int64{c.cands, c.pos, c.binCmp, c.recCmp, c.alibiBins}
			if got != want {
				t.Fatalf("counters (candidates, positive, bin cmp, record cmp, alibi) = %v, want %v", got, want)
			}
			if st.WindowsReselected == 0 || st.WindowsReplayed != 0 {
				t.Fatalf("one-shot run re-selected %d and replayed %d windows; want all selected, none replayed",
					st.WindowsReselected, st.WindowsReplayed)
			}
			if len(lk.edges.sel) != 0 || st.EdgeStore.SelectionBytes != 0 {
				t.Fatalf("one-shot run cached %d selections (%d bytes)", len(lk.edges.sel), st.EdgeStore.SelectionBytes)
			}
		})
	}
}
