package main

import (
	"time"
)

// Units of every metric; BENCHMARK.json lists the same names and units
// (TestMetricTablesMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"visible_p50_ms":   "ms",
	"visible_p90_ms":   "ms",
	"ack_p50_ms":       "ms",
	"query_p50_ms":     "ms",
	"ingest_rec_per_s": "1/s",
	"cpu_ms_per_krec":  "ms",
	"rss_peak_mb":      "MB",
	"final_f1":         "ratio",
	"setup_s":          "s",
}

var perLayerUnits = map[string]string{
	"client.ack_p90_ms":             "ms",
	"client.query_p99_ms":           "ms",
	"server.ingest_us_p50":          "us",
	"server.links_us_p50":           "us",
	"gen.late_ms_p99":               "ms",
	"ingest.self_us_p50":            "us",
	"ingest.shed_ratio":             "ratio",
	"storage.append_us_p50":         "us",
	"storage.sync_wait_us_p50":      "us",
	"storage.wal_bytes_per_rec":     "B",
	"storage.snapshots":             "count",
	"storage.snapshot_ms_mean":      "ms",
	"engine.relink_ms_p50":          "ms",
	"engine.relink_ms_p90":          "ms",
	"engine.wait_ms_p50":            "ms",
	"engine.relinks":                "count",
	"engine.full_rescore_share":     "ratio",
	"engine.apply_ms_sum":           "ms",
	"edges.rescored_per_run":        "count",
	"edges.retained_ratio":          "ratio",
	"tail.reused_prefix_ratio":      "ratio",
	"tail.full_rebuild_share":       "ratio",
	"matching.match_ms_p50":         "ms",
	"threshold.ms_p50":              "ms",
	"threshold.fit_reuse_ratio":     "ratio",
	"similarity.rescore_ms_p50":     "ms",
	"similarity.pairs_per_s":        "1/s",
	"candidates.index_ms_sum_p50":   "ms",
	"candidates.pairs_per_run":      "count",
	"go.alloc_kb_per_krec":          "kB",
	"go.gc_cpu_fraction":            "ratio",
	"trace.overhead_ack_p50_ms":     "ms",
	"trace.overhead_visible_p50_ms": "ms",
}

// metricSet fills a result's metrics, keeping the first percentile error.
type metricSet struct {
	units map[string]string
	out   map[string]metricValue
	err   error
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, out: make(map[string]metricValue)}
}

func (m *metricSet) set(name string, v float64) {
	m.out[name] = metricValue{Value: v, Unit: m.units[name]}
}

// pct sets a percentile of samples given in time order.
func (m *metricSet) pct(name string, xs []float64, p float64) {
	v, err := windowedPercentile(xs, p)
	if err != nil && m.err == nil {
		m.err = err
	}
	m.set(name, v)
}

func (p *pass) ackLatencies() []time.Duration {
	var out []time.Duration
	for k, ok := range p.log.batchOK {
		if ok {
			out = append(out, p.log.batchAck[k].Sub(p.log.batchDue[k]))
		}
	}
	return out
}

func (p *pass) visibleLatencies() []time.Duration {
	out := make([]time.Duration, len(p.vis))
	for k, v := range p.vis {
		out[k] = v.visible
	}
	return out
}

func (p *pass) readLatencies() []time.Duration {
	out := make([]time.Duration, len(p.log.readDue))
	for j := range out {
		out[j] = p.log.readDone[j].Sub(p.log.readDue[j])
	}
	return out
}

func (p *pass) krec() float64 { return float64(p.accepted) / 1000 }

func (p *pass) endToEnd() (map[string]metricValue, error) {
	m := newMetricSet(endToEndUnits)
	vis := toMs(p.visibleLatencies())
	m.pct("visible_p50_ms", vis, 0.5)
	m.pct("visible_p90_ms", vis, 0.9)
	m.pct("ack_p50_ms", toMs(p.ackLatencies()), 0.5)
	m.pct("query_p50_ms", toMs(p.readLatencies()), 0.5)
	m.set("ingest_rec_per_s", float64(p.accepted)/p.lastAck.Sub(p.log.t0).Seconds())
	m.set("cpu_ms_per_krec", ms(p.after.cpu-p.before.cpu)/p.krec())
	m.set("rss_peak_mb", float64(p.rssPeakKB)/1024)
	m.set("final_f1", p.f1)
	setup := make([]float64, len(p.setup))
	for k, d := range p.setup {
		setup[k] = d.Seconds()
	}
	m.set("setup_s", median(setup))
	return m.out, m.err
}

// perLayer reports the layer metrics of a traced pass; base is the
// untraced pass of the same run, against which the tracing overhead is
// measured.
func (p *pass) perLayer(base *pass) (map[string]metricValue, error) {
	m := newMetricSet(perLayerUnits)
	// The client tails come from the untraced pass. They swing with the
	// checkpoints and relinks a request happens to meet, too widely to be
	// gated end to end, so they are reported here.
	m.pct("client.ack_p90_ms", toMs(base.ackLatencies()), 0.9)
	m.pct("client.query_p99_ms", toMs(base.readLatencies()), 0.99)
	m.pct("server.ingest_us_p50", toUs(durationsOf(p.spans, "server.ingest")), 0.5)
	m.pct("server.links_us_p50", toUs(durationsOf(p.spans, "server.links")), 0.5)
	m.pct("gen.late_ms_p99", toMs(p.log.late), 0.99)
	m.pct("ingest.self_us_p50", toUs(selfTimes(p.spans, "server.ingest")), 0.5)
	b, a := p.before, p.after
	shed := float64(a.plane.ShedRecords - b.plane.ShedRecords)
	m.set("ingest.shed_ratio", ratio(shed, shed+float64(a.plane.AcceptedRecords-b.plane.AcceptedRecords)))

	m.pct("storage.append_us_p50", toUs(childTimes(p.spans, "server.ingest", "storage.append")), 0.5)
	m.pct("storage.sync_wait_us_p50", toUs(childTimes(p.spans, "server.ingest", "storage.sync_wait")), 0.5)
	m.set("storage.wal_bytes_per_rec", ratio(float64(a.store.WALBytesAppended-b.store.WALBytesAppended),
		float64(a.store.RecordsLogged-b.store.RecordsLogged)))
	m.set("storage.snapshots", float64(a.store.Snapshots-b.store.Snapshots))
	m.set("storage.snapshot_ms_mean", 1000*ratio(a.snapSum-b.snapSum, a.snapCount-b.snapCount))

	var relink, apply, rescore, match, thresh, index []time.Duration
	var full, rebuilds, rescored, retained, reused, cands int64
	for _, r := range p.runs {
		relink = append(relink, r.Duration)
		apply = append(apply, r.ApplyDur)
		rescore = append(rescore, r.RescoreDur)
		match = append(match, r.MatchDur)
		thresh = append(thresh, r.ThresholdDur)
		index = append(index, r.IndexDur)
		if r.FullRescore {
			full++
		}
		if r.TailFullRebuild {
			rebuilds++
		}
		rescored += r.Rescored
		retained += r.Retained
		reused += r.TailReusedPrefix
		cands += r.CandidatePairs
	}
	n := float64(len(p.runs))
	waits := make([]time.Duration, len(p.vis))
	for k, v := range p.vis {
		waits[k] = v.wait
	}
	m.pct("engine.relink_ms_p50", toMs(relink), 0.5)
	m.pct("engine.relink_ms_p90", toMs(relink), 0.9)
	m.pct("engine.wait_ms_p50", toMs(waits), 0.5)
	m.set("engine.relinks", n)
	m.set("engine.full_rescore_share", ratio(float64(full), n))
	m.set("engine.apply_ms_sum", ms(sum(apply)))

	m.set("edges.rescored_per_run", ratio(float64(rescored), n))
	m.set("edges.retained_ratio", ratio(float64(retained), float64(retained+rescored)))
	var matched int64
	if t := a.eng.PublishTail; t != nil {
		matched = t.Matched
	}
	m.set("tail.reused_prefix_ratio", ratio(float64(reused), n*float64(matched)))
	m.set("tail.full_rebuild_share", ratio(float64(rebuilds), n))
	m.pct("matching.match_ms_p50", toMs(match), 0.5)
	m.pct("threshold.ms_p50", toMs(thresh), 0.5)
	var fits, reuses float64
	if a.eng.PublishTail != nil && b.eng.PublishTail != nil {
		fits = float64(a.eng.PublishTail.ThresholdFits - b.eng.PublishTail.ThresholdFits)
		reuses = float64(a.eng.PublishTail.ThresholdReuses - b.eng.PublishTail.ThresholdReuses)
	}
	m.set("threshold.fit_reuse_ratio", ratio(reuses, fits+reuses))

	m.pct("similarity.rescore_ms_p50", toMs(rescore), 0.5)
	m.set("similarity.pairs_per_s", ratio(float64(rescored), sum(rescore).Seconds()))
	m.pct("candidates.index_ms_sum_p50", toMs(index), 0.5)
	m.set("candidates.pairs_per_run", ratio(float64(cands), n))

	m.set("go.alloc_kb_per_krec", float64(a.allocBytes-b.allocBytes)/1024/p.krec())
	m.set("go.gc_cpu_fraction", ratio(a.gcCPU-b.gcCPU, a.used-b.used))

	tAck, _ := windowedPercentile(toMs(p.ackLatencies()), 0.5)
	bAck, _ := windowedPercentile(toMs(base.ackLatencies()), 0.5)
	tVis, _ := windowedPercentile(toMs(p.visibleLatencies()), 0.5)
	bVis, _ := windowedPercentile(toMs(base.visibleLatencies()), 0.5)
	m.set("trace.overhead_ack_p50_ms", tAck-bAck)
	m.set("trace.overhead_visible_p50_ms", tVis-bVis)
	return m.out, m.err
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
