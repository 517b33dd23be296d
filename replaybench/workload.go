package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"slim"
	"slim/internal/datagen"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// workload is one traffic mix. Every field is fixed here, never taken
// from the command line, so a workload name always means the same load.
type workload struct {
	name string
	// taxis sizes the datagen Cab trace.
	taxis int
	// lsh, when set, turns slimd's candidate filter on.
	lsh *slim.LSHConfig
	// tick is the open-loop batch period.
	tick time.Duration
	// reobserve selects the replay shape: false replays the trace in time
	// order after a short preload; true preloads the whole trace and then
	// re-observes existing records on both sides.
	reobserve bool
}

const (
	// days and intervalSec shape the Cab trace of every workload.
	days        = 2
	intervalSec = 360
	// preloadSec is how much stream time the stream workloads load at
	// boot, so the server has a published result before the first read.
	preloadSec = 4 * 3600
	// debounce is slimd's relink debounce, a deployment setting. It sits
	// well below both the tick and a relink, so relink work, not the
	// timer, dominates visibility.
	debounce = 10 * time.Millisecond
	// readRate is the read probe's fixed rate of GET /v1/links/{entity}
	// per second.
	readRate = 200
)

var workloads = []workload{
	{
		// Time-advancing stream: every batch opens new windows, so every
		// relink is a full rescore and the similarity kernel dominates.
		name: "stream", taxis: 64, tick: 150 * time.Millisecond,
	},
	{
		// The same replay at 256 taxis with the LSH filter on: the
		// candidate index does most of the work. Level 12 and t=0.2 keep
		// recall; slimd's defaults (level 16, t=0.6) give F1 near 0.17.
		name: "stream_lsh", taxis: 256, tick: 200 * time.Millisecond,
		lsh: &slim.LSHConfig{Threshold: 0.2, StepWindows: 48, SpatialLevel: 12, NumBuckets: 4096},
	},
	{
		// Re-observation of existing bins: the delta path. Ingest, WAL,
		// engine overhead and the publish tail dominate.
		name: "reobserve", taxis: 64, tick: 50 * time.Millisecond,
		reobserve: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// linkConfig is slimd's default linkage configuration plus the
// workload's LSH setting.
func (w workload) linkConfig() slim.Config {
	cfg := slim.Defaults()
	if w.lsh != nil {
		l := *w.lsh
		cfg.LSH = &l
	}
	return cfg
}

// batch is one ingest request: its wire body and the decoded records the
// server will see, in frame order.
type batch struct {
	slot int // due at t0 + slot*tick
	body []byte
	e, i []slim.Record
}

// input is everything a pass feeds slimd, all derived from the seed.
type input struct {
	seedE, seedI slim.Dataset // loaded at boot
	batches      []batch
	truth        map[slim.EntityID]slim.EntityID
	probeIDs     []string // entities the read probe cycles over
	slots        int
}

// buildInput generates the workload's inputs from the seed: the same
// seed gives byte-identical batches.
func buildInput(w workload, seed int64, seconds int) (*input, error) {
	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: w.taxis, Days: days, MeanRecordIntervalSec: intervalSec, Seed: seed,
	})
	sw := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: seed + 1,
	})
	e := datagen.SortByTime(&sw.E)
	i := datagen.SortByTime(&sw.I)
	in := &input{truth: sw.Truth, slots: int(time.Duration(seconds) * time.Second / w.tick)}
	for _, id := range sw.E.Entities() {
		in.probeIDs = append(in.probeIDs, string(id))
	}
	if len(in.probeIDs) == 0 {
		return nil, fmt.Errorf("workload %s: datagen produced no entities", w.name)
	}
	var err error
	if w.reobserve {
		in.seedE, in.seedI = e, i
		err = in.reobserveBatches(rand.New(rand.NewSource(seed + 2)))
	} else {
		err = in.streamBatches(e, i)
	}
	if err != nil {
		return nil, err
	}
	if len(in.batches) == 0 {
		return nil, fmt.Errorf("workload %s: no batches", w.name)
	}
	return in, nil
}

// streamBatches loads the first preloadSec of stream time at boot and
// cuts the rest into one equal time slice per slot, E and I interleaved
// by time.
func (in *input) streamBatches(e, i slim.Dataset) error {
	lo, hi := timeRange(e, i)
	cut := lo + preloadSec
	in.seedE, in.seedI = slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}
	restE := splitAt(e, cut, &in.seedE)
	restI := splitAt(i, cut, &in.seedI)
	span := float64(hi+1-cut) / float64(in.slots)
	sliceOf := func(r slim.Record) int { return min(int(float64(r.Unix-cut)/span), in.slots-1) }
	for s := 0; s < in.slots; s++ {
		var be, bi []slim.Record
		for len(restE) > 0 && sliceOf(restE[0]) == s {
			be, restE = append(be, restE[0]), restE[1:]
		}
		for len(restI) > 0 && sliceOf(restI[0]) == s {
			bi, restI = append(bi, restI[0]), restI[1:]
		}
		if err := in.add(s, be, bi); err != nil {
			return err
		}
	}
	return nil
}

// reobserveBatches re-sends, every slot, two recorded visits each of
// two E entities and one I entity loaded at boot: every record lands in
// a bin that already exists.
func (in *input) reobserveBatches(rng *rand.Rand) error {
	pick := func(d slim.Dataset) func(entities int) []slim.Record {
		byEntity, ids := d.ByEntity(), d.Entities()
		return func(entities int) []slim.Record {
			var out []slim.Record
			for range entities {
				recs := byEntity[ids[rng.Intn(len(ids))]]
				out = append(out, recs[rng.Intn(len(recs))], recs[rng.Intn(len(recs))])
			}
			return out
		}
	}
	pickE, pickI := pick(in.seedE), pick(in.seedI)
	for s := 0; s < in.slots; s++ {
		if err := in.add(s, pickE(2), pickI(1)); err != nil {
			return err
		}
	}
	return nil
}

// add encodes one request of up to two frames (E, then I) and keeps the
// records exactly as the server decodes them.
func (in *input) add(slot int, e, i []slim.Record) error {
	var body []byte
	if len(e) > 0 {
		body = storage.AppendFrame(body, storage.AppendWireBatch(nil, storage.TagE, e))
	}
	if len(i) > 0 {
		body = storage.AppendFrame(body, storage.AppendWireBatch(nil, storage.TagI, i))
	}
	if len(body) == 0 {
		return nil
	}
	wbs, _, err := ingest.ParseRequest(body)
	if err != nil {
		return fmt.Errorf("slot %d: encoded batch does not parse: %w", slot, err)
	}
	b := batch{slot: slot, body: body}
	for _, wb := range wbs {
		if wb.Tag == storage.TagE {
			b.e = wb.Recs
		} else {
			b.i = wb.Recs
		}
	}
	in.batches = append(in.batches, b)
	return nil
}

func timeRange(ds ...slim.Dataset) (lo, hi int64) {
	first := true
	for _, d := range ds {
		for _, r := range d.Records {
			if first || r.Unix < lo {
				lo = r.Unix
			}
			if first || r.Unix > hi {
				hi = r.Unix
			}
			first = false
		}
	}
	return lo, hi
}

// splitAt appends the records of a time-sorted dataset before cut to
// head and returns the rest.
func splitAt(d slim.Dataset, cut int64, head *slim.Dataset) []slim.Record {
	k, _ := slices.BinarySearchFunc(d.Records, cut, func(r slim.Record, t int64) int {
		return cmp.Compare(r.Unix, t)
	})
	head.Records = append(head.Records, d.Records[:k]...)
	return d.Records[k:]
}
