package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// setupReps is how many times a pass boots a stack; setup_s is the
// median, and the last stack serves the replay.
const setupReps = 9

// pass is one replay through one stack and everything measured on it.
type pass struct {
	setup []time.Duration
	log   *replayLog
	// vis holds the attribution of every acknowledged batch, in order.
	vis []visibility
	// runs are the relinks of the replay window that did work.
	runs          []engine.RunRecord
	accepted      int // records acknowledged
	lastAck       time.Time
	before, after counters
	rssPeakKB     int64
	f1            float64
	// checkErr is the first failed correctness check; nil means the pass
	// is correct.
	checkErr          error
	attempted, failed int64
	spans             []span
}

// counters are the cumulative readings taken around the replay window.
type counters struct {
	cpu         time.Duration // process user+system time
	allocBytes  uint64
	gcCPU, used float64 // runtime CPU-class seconds: GC, and all but idle
	eng         engine.Stats
	store       storage.Stats
	plane       ingest.Stats
	// snapSum / snapCount come from the slim_storage_snapshot_seconds
	// histogram on GET /metrics (traced passes only).
	snapSum, snapCount float64
}

func runPass(w workload, in *input, seconds int, dir string, tr *tracer) (*pass, error) {
	p := &pass{}
	var st *stack
	for k := range setupReps {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		var t *tracer
		if k == setupReps-1 {
			t = tr
		}
		start := time.Now()
		s, err := boot(d, w, in, t)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		p.setup = append(p.setup, time.Since(start))
		if k == setupReps-1 {
			st = s
			break
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("closing setup stack: %w", err)
		}
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	// Collect the garbage of the earlier set-ups now, not during the
	// replay.
	runtime.GC()
	rq := &requests{}
	if err := p.measure(st, in, w, seconds, rq, tr); err != nil {
		st.close()
		return nil, err
	}

	acked := p.log.batchOK
	links, err := publishedLinks(st, rq)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("reading published links: %w", err)
	}
	p.f1 = slim.Evaluate(links, in.truth).F1
	ref, err := referenceLinks(w, in, acked)
	if err != nil {
		st.close()
		return nil, err
	}
	p.check(sameLinks(links, ref))
	p.check(st.close())
	p.check(checkWAL(st, in, acked))
	p.attempted, p.failed = rq.attempted.Load(), rq.failed.Load()
	if tr != nil {
		for _, r := range p.runs {
			tr.add(span{Name: "engine.relink", Batch: fmt.Sprintf("run-%d", r.Seq), Parent: -1, Start: r.Start, End: r.Start.Add(r.Duration)})
		}
		p.spans = tr.snapshot()
	}
	return p, nil
}

func (p *pass) check(err error) {
	if p.checkErr == nil && err != nil {
		p.checkErr = err
	}
}

// measure runs the replay and takes every reading of the window, which
// spans the first due time to the end of the relink that made the last
// acknowledged batch visible.
func (p *pass) measure(st *stack, in *input, w workload, seconds int, rq *requests, tr *tracer) error {
	var err error
	if p.before, err = read(st, rq, tr != nil); err != nil {
		return err
	}
	p.log = replay(st, in, w, seconds, rq)
	var dues, acks []time.Time
	for k, ok := range p.log.batchOK {
		if !ok {
			continue
		}
		dues = append(dues, p.log.batchDue[k])
		acks = append(acks, p.log.batchAck[k])
		p.accepted += len(in.batches[k].e) + len(in.batches[k].i)
		if p.log.batchAck[k].After(p.lastAck) {
			p.lastAck = p.log.batchAck[k]
		}
	}
	if len(acks) == 0 {
		return fmt.Errorf("no batch was acknowledged: %v", p.log.firstErr)
	}
	runs, err := waitVisible(st.eng, p.lastAck)
	if err != nil {
		return err
	}
	if p.after, err = read(st, rq, tr != nil); err != nil {
		return err
	}
	if p.rssPeakKB, err = vmHWM(); err != nil {
		return err
	}
	for _, r := range slices.Backward(runs) { // the journal is newest first
		if !r.Start.Before(p.log.t0) && !r.ShortCircuit && !r.Panicked {
			p.runs = append(p.runs, r)
		}
	}
	p.vis, err = attribute(dues, acks, p.runs)
	return err
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func read(st *stack, rq *requests, scrape bool) (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := make([]metrics.Sample, len(runtimeSamples))
	for k, name := range runtimeSamples {
		s[k].Name = name
	}
	metrics.Read(s)
	c.allocBytes = s[0].Value.Uint64()
	c.gcCPU = s[1].Value.Float64()
	c.used = s[2].Value.Float64() - s[3].Value.Float64()
	c.eng, c.store, c.plane = st.eng.Stats(), st.store.Stats(), st.plane.Stats()
	if scrape {
		req, err := http.NewRequest(http.MethodGet, st.base+"/metrics", nil)
		if err != nil {
			return c, err
		}
		body, err := rq.do(st.probe, req)
		if err != nil {
			return c, err
		}
		c.snapSum = promValue(body, "slim_storage_snapshot_seconds_sum")
		c.snapCount = promValue(body, "slim_storage_snapshot_seconds_count")
	}
	return c, nil
}

// promValue returns the value of an unlabelled sample in a Prometheus
// text exposition (0 when absent).
func promValue(body []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// vmHWM is the process's peak resident set in kB.
func vmHWM() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
