package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"slim/internal/engine"
)

func TestAttributeConservativeRunChoice(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	run := func(seq uint64, start, dur int, short, panicked bool) engine.RunRecord {
		return engine.RunRecord{Seq: seq, Start: at(start), Duration: time.Duration(dur) * time.Millisecond,
			ShortCircuit: short, Panicked: panicked}
	}
	// Journal order is newest first; attribute must not depend on it.
	runs := []engine.RunRecord{
		run(6, 400, 30, false, false),
		run(5, 300, 5, false, true), // panicked: published nothing
		run(4, 250, 1, true, false), // short circuit: no new work
		run(3, 120, 40, false, false),
		run(2, 100, 50, false, false), // started exactly at the ack: too early
		run(1, 20, 60, false, false),
	}
	dues := []time.Time{at(0), at(90), at(200)}
	acks := []time.Time{at(10), at(100), at(240)}
	got, err := attribute(dues, acks, runs)
	if err != nil {
		t.Fatal(err)
	}
	want := []visibility{
		// Run 1 started after the ack at 10 ms and ended at 80 ms.
		{visible: 80 * time.Millisecond, wait: 10 * time.Millisecond, run: 1},
		// Run 2 started at the ack itself, so it may have missed the
		// batch; run 3 is the first that surely includes it.
		{visible: 70 * time.Millisecond, wait: 20 * time.Millisecond, run: 3},
		// Runs 4 and 5 are skipped; run 6 ends at 430 ms.
		{visible: 230 * time.Millisecond, wait: 160 * time.Millisecond, run: 6},
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("batch %d: got %+v, want %+v", k, got[k], want[k])
		}
	}
	if _, err := attribute([]time.Time{at(500)}, []time.Time{at(500)}, runs); err == nil {
		t.Error("a batch acked after the last run was attributed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = float64(n - k) // reversed, so the function must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d p=%g: err=%v, want ok=%v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("n=%d p=%g: got %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestWindowedPercentileIsMedianOfWindows(t *testing.T) {
	// 300 samples: three windows of 100 for p90. The middle window is
	// slow; the median of the windows' p90s comes from a fast one.
	xs := make([]float64, 300)
	for k := range xs {
		xs[k] = float64(k % 100)
		if k >= 100 && k < 200 {
			xs[k] += 1000
		}
	}
	if got, err := windowedPercentile(xs, 0.9); err != nil || got != 89 {
		t.Errorf("p90 = %v, %v; want 89", got, err)
	}
	// 150 samples hold one p90 window only: the plain percentile.
	if got, err := windowedPercentile(xs[:150], 0.9); err != nil || got != 1034 {
		t.Errorf("p90 of 150 = %v, %v; want 1034", got, err)
	}
	if _, err := windowedPercentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"stream", "reobserve"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := buildInput(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInput(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInput(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(joined(a), joined(b)) {
			t.Errorf("%s: the same seed gave different batches", name)
		}
		if bytes.Equal(joined(a), joined(c)) {
			t.Errorf("%s: different seeds gave identical batches", name)
		}
	}
}

func joined(in *input) []byte {
	var out []byte
	for _, b := range in.batches {
		out = append(out, byte(b.slot), byte(b.slot>>8))
		out = append(out, b.body...)
	}
	return out
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	spans := []span{
		{Name: "server.ingest", Parent: -1, Start: at(0), End: at(100)},
		{Name: "storage.append", Parent: 0, Start: at(10), End: at(20)},
		{Name: "storage.sync_wait", Parent: 0, Start: at(20), End: at(60)},
		{Name: "server.ingest", Parent: -1, Start: at(200), End: at(230)},
	}
	self := selfTimes(spans, "server.ingest")
	if len(self) != 2 || self[0] != 50*time.Microsecond || self[1] != 30*time.Microsecond {
		t.Errorf("self times %v, want [50µs 30µs]", self)
	}
	waits := childTimes(spans, "server.ingest", "storage.sync_wait")
	if len(waits) != 2 || waits[0] != 40*time.Microsecond || waits[1] != 0 {
		t.Errorf("sync waits %v, want [40µs 0s]", waits)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric and workload
// tables here and the benchmark contract at the repository root in
// step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %s, the harness has %d", strings.Join(names, ", "), len(workloads))
	}
	same := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, harness unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, perLayerUnits)
}
