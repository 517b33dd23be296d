package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"

	"slim"
	"slim/internal/engine"
	"slim/internal/storage"
)

type linkJSON struct {
	U     string  `json:"u"`
	V     string  `json:"v"`
	Score float64 `json:"score"`
}

// publishedLinks forces a final relink with POST /v1/link and reads the
// published links back with GET /v1/links.
func publishedLinks(st *stack, rq *requests) ([]slim.Link, error) {
	req, err := http.NewRequest(http.MethodPost, st.base+"/v1/link", nil)
	if err != nil {
		return nil, err
	}
	if _, err := rq.do(st.probe, req); err != nil {
		return nil, err
	}
	if req, err = http.NewRequest(http.MethodGet, st.base+"/v1/links", nil); err != nil {
		return nil, err
	}
	body, err := rq.do(st.probe, req)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Links []linkJSON `json:"links"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /v1/links: %w", err)
	}
	out := make([]slim.Link, len(resp.Links))
	for k, l := range resp.Links {
		out[k] = slim.Link{U: slim.EntityID(l.U), V: slim.EntityID(l.V), Score: l.Score}
	}
	return out, nil
}

// referenceLinks links the same records from scratch: an engine with the
// same configuration, seeded alike, fed every acknowledged record in one
// buffer and run once.
func referenceLinks(w workload, in *input, acked []bool) ([]slim.Link, error) {
	eng, err := engine.New(quantized(in.seedE), quantized(in.seedI), engineConfig(w, nil))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	var e, i []slim.Record
	for k, b := range in.batches {
		if acked[k] {
			e = append(e, b.e...)
			i = append(i, b.i...)
		}
	}
	eng.BufferE(e...)
	eng.BufferI(i...)
	return eng.Run().Links, nil
}

func quantized(d slim.Dataset) slim.Dataset {
	out := slim.Dataset{Name: d.Name, Records: make([]slim.Record, len(d.Records))}
	for k, r := range d.Records {
		out.Records[k] = storage.QuantizeRecord(r)
	}
	return out
}

// sameLinks compares two link sets exactly: same pairs, and scores equal
// bit for bit.
func sameLinks(got, want []slim.Link) error {
	byPair := func(a, b slim.Link) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) }
	got, want = slices.Clone(got), slices.Clone(want)
	slices.SortFunc(got, byPair)
	slices.SortFunc(want, byPair)
	if len(got) != len(want) {
		return fmt.Errorf("published %d links, from-scratch engine %d", len(got), len(want))
	}
	for k := range got {
		g, r := got[k], want[k]
		if g.U != r.U || g.V != r.V || math.Float64bits(g.Score) != math.Float64bits(r.Score) {
			return fmt.Errorf("link %d: published (%s, %s, %v), from-scratch (%s, %s, %v)", k, g.U, g.V, g.Score, r.U, r.V, r.Score)
		}
	}
	return nil
}

// checkWAL replays the pass's whole write-ahead log (the archived
// segments plus the live ones) and requires exactly the acknowledged
// batches, in ack order, E frame before I frame. Call it after the
// stack is closed.
func checkWAL(st *stack, in *input, acked []bool) error {
	if err := st.archiveLive(); err != nil {
		return err
	}
	type frame struct {
		tag  byte
		recs []slim.Record
	}
	var want []frame
	for k, b := range in.batches {
		if !acked[k] {
			continue
		}
		if len(b.e) > 0 {
			want = append(want, frame{storage.TagE, b.e})
		}
		if len(b.i) > 0 {
			want = append(want, frame{storage.TagI, b.i})
		}
	}
	n := 0
	_, _, err := storage.ReplayWAL(st.walArchive, 0, func(b storage.Batch) error {
		if n >= len(want) {
			return fmt.Errorf("WAL batch %d (seq %d) was never acknowledged", n, b.Seq)
		}
		if b.Tag != want[n].tag || !slices.Equal(b.Recs, want[n].recs) {
			return fmt.Errorf("WAL batch %d (seq %d) differs from the acknowledged batch", n, b.Seq)
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	if n != len(want) {
		return fmt.Errorf("WAL holds %d batches, %d were acknowledged", n, len(want))
	}
	return nil
}
