package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"testing"

	"slim"
)

// TestExplainConsistentWithStats is the HTTP-level consistency gate:
// after ingest and a relink, every published link's /v1/explain document
// must carry an edge lineage whose run seq is at most the /v1/stats
// version, a score breakdown that recomposes to the link's score bit for
// bit, and a joined run record from /v1/runs.
func TestExplainConsistentWithStats(t *testing.T) {
	ts, _ := newTestServer(t)

	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: 12, Days: 2, MeanRecordIntervalSec: 420, Seed: 31,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.6, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 32,
	})
	for _, in := range []struct {
		ds   string
		recs []slim.Record
	}{{"e", w.E.Records}, {"i", w.I.Records}} {
		resp, body := postJSON(t, ts.URL+"/v1/datasets/"+in.ds+"/records",
			map[string]any{"records": toWire(in.recs)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", in.ds, resp.StatusCode, body)
		}
	}
	postJSON(t, ts.URL+"/v1/link", nil)
	postJSON(t, ts.URL+"/v1/link", nil) // clean short circuit, journaled too

	var stats struct {
		Version    uint64 `json:"version"`
		RunJournal struct {
			Capacity  int    `json:"capacity"`
			Records   int    `json:"records"`
			TotalRuns uint64 `json:"total_runs"`
		} `json:"run_journal"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Version == 0 {
		t.Fatal("no published version after POST /v1/link")
	}
	if stats.RunJournal.Capacity == 0 || stats.RunJournal.TotalRuns < 2 {
		t.Fatalf("run_journal block %+v, want capacity and >= 2 runs", stats.RunJournal)
	}

	var links struct {
		Links []struct {
			U     string  `json:"u"`
			V     string  `json:"v"`
			Score float64 `json:"score"`
		} `json:"links"`
	}
	getJSON(t, ts.URL+"/v1/links", &links)
	if len(links.Links) == 0 {
		t.Fatal("no links to explain")
	}

	for _, l := range links.Links {
		var ex struct {
			E     string `json:"e"`
			I     string `json:"i"`
			Score struct {
				Known   bool    `json:"known"`
				Total   float64 `json:"total"`
				Windows []struct {
					Sum   float64 `json:"sum"`
					Pairs []struct {
						CellU        string  `json:"cell_u"`
						Contribution float64 `json:"contribution"`
					} `json:"pairs"`
				} `json:"windows"`
			} `json:"score"`
			Edge struct {
				Linked      bool    `json:"linked"`
				Score       float64 `json:"score"`
				RescoredSeq uint64  `json:"rescored_seq"`
			} `json:"edge"`
			Version uint64 `json:"version"`
			Run     *struct {
				Version  uint64 `json:"version"`
				Trigger  string `json:"trigger"`
				Panicked bool   `json:"panicked"`
			} `json:"run"`
		}
		u := fmt.Sprintf("%s/v1/explain?e=%s&i=%s",
			ts.URL, url.QueryEscape(l.U), url.QueryEscape(l.V))
		if resp := getJSON(t, u, &ex); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/explain (%s, %s): %d", l.U, l.V, resp.StatusCode)
		}
		if !ex.Score.Known || !ex.Edge.Linked {
			t.Fatalf("explain (%s, %s): known=%v linked=%v", l.U, l.V, ex.Score.Known, ex.Edge.Linked)
		}
		if math.Float64bits(ex.Score.Total) != math.Float64bits(l.Score) {
			t.Fatalf("explain (%s, %s): breakdown total %v != link score %v",
				l.U, l.V, ex.Score.Total, l.Score)
		}
		if ex.Edge.RescoredSeq == 0 || ex.Edge.RescoredSeq > stats.Version {
			t.Fatalf("explain (%s, %s): lineage seq %d outside (0, version %d]",
				l.U, l.V, ex.Edge.RescoredSeq, stats.Version)
		}
		if ex.Run == nil || ex.Run.Version != ex.Edge.RescoredSeq || ex.Run.Panicked {
			t.Fatalf("explain (%s, %s): run join %+v, want the non-panicked run of seq %d",
				l.U, l.V, ex.Run, ex.Edge.RescoredSeq)
		}
		if len(ex.Score.Windows) == 0 {
			t.Fatalf("explain (%s, %s): positive score with no window decomposition", l.U, l.V)
		}
	}

	// Missing parameters are a client error.
	if resp := getJSON(t, ts.URL+"/v1/explain?e=only", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/explain without i: %d, want 400", resp.StatusCode)
	}
}

// TestRunsEndpoint checks /v1/runs shape and pagination: newest first,
// short-circuit and full-rescore decisions visible, limit/offset honored.
func TestRunsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	recs := []slim.Record{
		slim.NewRecord("a", 37.2, -121.9, 1000),
		slim.NewRecord("a", 37.2, -121.9, 2000),
	}
	postJSON(t, ts.URL+"/v1/datasets/e/records", map[string]any{"records": toWire(recs)})
	postJSON(t, ts.URL+"/v1/link", nil)
	postJSON(t, ts.URL+"/v1/link", nil)
	postJSON(t, ts.URL+"/v1/link", nil)

	var runs struct {
		TotalRuns uint64 `json:"total_runs"`
		Capacity  int    `json:"capacity"`
		Count     int    `json:"count"`
		Runs      []struct {
			Seq          uint64 `json:"seq"`
			Version      uint64 `json:"version"`
			Trigger      string `json:"trigger"`
			ShortCircuit bool   `json:"short_circuit"`
			FullRescore  bool   `json:"full_rescore"`
			StartUnixMs  int64  `json:"start_unix_ms"`
		} `json:"runs"`
	}
	getJSON(t, ts.URL+"/v1/runs", &runs)
	if runs.TotalRuns != 3 || runs.Count != 3 || len(runs.Runs) != 3 {
		t.Fatalf("runs = %+v, want 3 journaled runs", runs)
	}
	for i, r := range runs.Runs {
		if r.Trigger != "manual" || r.StartUnixMs == 0 {
			t.Fatalf("run %d: %+v, want a manual run with a start time", i, r)
		}
		if i > 0 && runs.Runs[i-1].Seq <= r.Seq {
			t.Fatal("runs not newest first")
		}
	}
	if !runs.Runs[2].FullRescore || runs.Runs[2].ShortCircuit {
		t.Fatalf("oldest run %+v, want the initial full rescore", runs.Runs[2])
	}
	if !runs.Runs[0].ShortCircuit {
		t.Fatalf("newest run %+v, want a fully-clean short circuit", runs.Runs[0])
	}

	var page struct {
		Count int `json:"count"`
		Runs  []struct {
			Seq uint64 `json:"seq"`
		} `json:"runs"`
	}
	getJSON(t, ts.URL+"/v1/runs?limit=1&offset=1", &page)
	if page.Count != 1 || len(page.Runs) != 1 || page.Runs[0].Seq != runs.Runs[1].Seq {
		t.Fatalf("paged runs = %+v, want the second-newest record", page)
	}

	if resp := getJSON(t, ts.URL+"/v1/runs?limit=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/runs?limit=x: %d, want 400", resp.StatusCode)
	}
}

// TestRunsAndStatsReportSelectionCache checks the selection-cache
// attribution surfaces: a streamed relink journals its re-selected and
// replayed windows on /v1/runs, and /v1/stats reports the cache's
// resident bytes. The first run selects every window; after a second
// time-ordered batch most windows are replayed.
func TestRunsAndStatsReportSelectionCache(t *testing.T) {
	ts, _ := newTestServer(t)
	ground := slim.GenerateCab(slim.CabOptions{NumTaxis: 8, Days: 1, MeanRecordIntervalSec: 600, Seed: 5})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 6,
	})
	lo, hi, _ := w.E.TimeRange()
	cut := lo + (hi-lo)*9/10
	post := func(late bool) {
		for _, d := range []struct {
			ds   string
			recs []slim.Record
		}{{"e", w.E.Records}, {"i", w.I.Records}} {
			var part []slim.Record
			for _, r := range d.recs {
				if (r.Unix >= cut) == late {
					part = append(part, r)
				}
			}
			postJSON(t, ts.URL+"/v1/datasets/"+d.ds+"/records", map[string]any{"records": toWire(part)})
		}
		postJSON(t, ts.URL+"/v1/link", nil)
	}
	post(false)
	post(true)

	var runs struct {
		Runs []struct {
			WindowsReselected int64 `json:"windows_reselected"`
			WindowsReplayed   int64 `json:"windows_replayed"`
		} `json:"runs"`
	}
	getJSON(t, ts.URL+"/v1/runs", &runs)
	if len(runs.Runs) != 2 {
		t.Fatalf("%d journaled runs, want 2", len(runs.Runs))
	}
	first, second := runs.Runs[1], runs.Runs[0]
	if first.WindowsReselected == 0 || first.WindowsReplayed != 0 {
		t.Fatalf("first run %+v, want every window selected afresh", first)
	}
	if second.WindowsReplayed <= second.WindowsReselected {
		t.Fatalf("second run %+v, want mostly replayed windows", second)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.EdgeStore == nil || st.EdgeStore.SelectionBytes <= 0 {
		t.Fatalf("edge_store.selection_bytes not reported: %+v", st.EdgeStore)
	}
}
