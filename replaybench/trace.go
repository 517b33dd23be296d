package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/ingest"
)

// span is one timed call at a layer boundary. Spans of one ingest
// request share its batch id (the X-Request-Id the producer sends);
// Parent is the index of the enclosing span, -1 for none.
type span struct {
	Name   string    `json:"name"`
	Batch  string    `json:"batch,omitempty"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer holds the spans of a traced pass in memory; they are written
// out once the pass is over.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// ingest is the index of the open server.ingest span. There is one
	// producer connection, so at most one ingest request is in flight.
	ingest atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{}
	t.ingest.Store(-1)
	return t
}

func (t *tracer) begin(name, batch string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Batch: batch, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span timed elsewhere (engine runs from the journal).
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// handler wraps slimd's root handler with one span per request:
// server.ingest for POST /v1/ingest/batch, server.links for the read
// probe's GET /v1/links/{entity}, server.other for the rest.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "server.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/ingest/batch":
			name = "server.ingest"
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/links/"):
			name = "server.links"
		}
		id := t.begin(name, r.Header.Get("X-Request-Id"), -1)
		if name == "server.ingest" {
			t.ingest.Store(int64(id))
			defer t.ingest.Store(-1)
		}
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedLogger times the ingest plane's calls into the store: the WAL
// append and the wait for the group-commit fsync, as children of the
// ingest request that made them.
type tracedLogger struct {
	t    *tracer
	next ingest.BatchLogger
}

func (l tracedLogger) LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (func() error, error) {
	parent := int(l.t.ingest.Load())
	batch := l.t.batchOf(parent)
	id := l.t.begin("storage.append", batch, parent)
	wait, err := l.next.LogEncoded(tag, recordBytes, recs)
	l.t.end(id)
	if err != nil {
		return nil, err
	}
	return func() error {
		id := l.t.begin("storage.sync_wait", batch, parent)
		err := wait()
		l.t.end(id)
		return err
	}, nil
}

func (t *tracer) batchOf(id int) string {
	if id < 0 {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Batch
}

// selfTimes returns, for every span with the given name, its duration
// minus the time its child spans cover.
func selfTimes(spans []span, name string) []time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Name == name {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

// childTimes returns, for every span with the given name, the summed
// duration of its children named child (an ingest request logs one
// batch per frame).
func childTimes(spans []span, name, child string) []time.Duration {
	sums := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.Name == child {
			sums[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Name == name {
			out = append(out, sums[i])
		}
	}
	return out
}

func durationsOf(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
