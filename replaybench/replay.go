package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/engine"
	"slim/internal/ingest"
)

// requests counts every request the clients make, on all routes. A
// failure is a transport error or a non-2xx answer (429 and 503
// included).
type requests struct {
	attempted, failed atomic.Int64
}

func (rq *requests) do(c *http.Client, req *http.Request) ([]byte, error) {
	rq.attempted.Add(1)
	resp, err := c.Do(req)
	if err != nil {
		rq.failed.Add(1)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	if err != nil {
		rq.failed.Add(1)
	}
	return body, err
}

// event is one scheduled request of the open loop.
type event struct {
	due  time.Time
	read bool
	idx  int
}

// replayLog is what the open loop observed, indexed like the batches
// and the reads.
type replayLog struct {
	t0 time.Time
	// batchDue/batchAck and readDue/readDone are request due and
	// completion times; batchOK marks the acknowledged batches.
	batchDue, batchAck []time.Time
	batchOK            []bool
	readDue, readDone  []time.Time
	// late is how far behind its schedule the generator released each
	// event.
	late     []time.Duration
	firstErr error
}

// replay runs the open loop: a generator goroutine releases each batch
// and each read at its due time, whatever the server is doing; the
// producer and the read probe each send their requests in order over
// their one connection. Latency is timed from the due time, so a stall
// also counts against the requests queued behind it.
func replay(st *stack, in *input, w workload, seconds int, rq *requests) *replayLog {
	nReads := seconds * readRate
	lg := &replayLog{
		t0:       time.Now().Add(20 * time.Millisecond),
		batchDue: make([]time.Time, len(in.batches)),
		batchAck: make([]time.Time, len(in.batches)),
		batchOK:  make([]bool, len(in.batches)),
		readDue:  make([]time.Time, nReads),
		readDone: make([]time.Time, nReads),
	}
	events := make([]event, 0, len(in.batches)+nReads)
	for k, b := range in.batches {
		lg.batchDue[k] = lg.t0.Add(time.Duration(b.slot) * w.tick)
		events = append(events, event{due: lg.batchDue[k], idx: k})
	}
	period := time.Second / readRate
	for j := range nReads {
		lg.readDue[j] = lg.t0.Add(time.Duration(j) * period)
		events = append(events, event{due: lg.readDue[j], read: true, idx: j})
	}
	slices.SortStableFunc(events, func(a, b event) int { return a.due.Compare(b.due) })
	lg.late = make([]time.Duration, len(events))

	// Each channel is buffered for every event it will carry, so the
	// generator never blocks on a slow server.
	batchCh := make(chan int, len(in.batches))
	readCh := make(chan int, nReads)
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { lg.firstErr = err }) }

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(batchCh)
		defer close(readCh)
		for k, ev := range events {
			if d := time.Until(ev.due); d > 0 {
				time.Sleep(d)
			}
			lg.late[k] = time.Since(ev.due)
			if ev.read {
				readCh <- ev.idx
			} else {
				batchCh <- ev.idx
			}
		}
	}()
	go func() {
		defer wg.Done()
		for k := range batchCh {
			req, err := http.NewRequest(http.MethodPost, st.base+"/v1/ingest/batch", bytes.NewReader(in.batches[k].body))
			if err != nil {
				fail(err)
				continue
			}
			req.Header.Set("Content-Type", ingest.ContentType)
			req.Header.Set("X-Request-Id", fmt.Sprintf("batch-%d", k))
			_, err = rq.do(st.producer, req)
			lg.batchAck[k] = time.Now()
			if err != nil {
				fail(fmt.Errorf("batch %d: %w", k, err))
				continue
			}
			lg.batchOK[k] = true
		}
	}()
	go func() {
		defer wg.Done()
		for j := range readCh {
			req, err := http.NewRequest(http.MethodGet, st.base+"/v1/links/"+in.probeIDs[j%len(in.probeIDs)], nil)
			if err != nil {
				fail(err)
				continue
			}
			if _, err := rq.do(st.probe, req); err != nil {
				fail(fmt.Errorf("read %d: %w", j, err))
			}
			lg.readDone[j] = time.Now()
		}
	}()
	wg.Wait()
	return lg
}

// waitVisible blocks until a relink that started after the last ack has
// finished, and returns the journal then.
func waitVisible(eng *engine.Engine, lastAck time.Time) ([]engine.RunRecord, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		runs, total := eng.Runs(0, 0)
		if total > uint64(eng.RunJournalCap()) {
			return nil, fmt.Errorf("run journal overflowed: %d runs, capacity %d", total, eng.RunJournalCap())
		}
		for _, r := range runs {
			if r.Start.After(lastAck) && !r.ShortCircuit && !r.Panicked {
				return runs, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no relink after the last ack within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
