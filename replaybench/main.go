// Command replaybench replays datagen Cab traces into an in-process
// slimd over loopback and reports end-to-end and per-layer metrics.
//
// The stack is assembled the way cmd/slimd assembles it: storage.Recover
// over a real data directory (WAL and snapshots), the engine, the ingest
// plane and server.New behind an HTTP listener on 127.0.0.1. Records
// reach it only as encoded batches through POST /v1/ingest/batch. A
// generator goroutine releases batches and reads on a fixed schedule;
// latencies are timed from each request's due time. Every pass is
// checked: the published links must equal a from-scratch engine's bit
// for bit, and the write-ahead log must hold exactly the acknowledged
// batches.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash replaybench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the correctness
// verdict, the request counts and the metrics — the end-to-end ones
// with --trace 0, the per-layer ones with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is
// kept out of tuning and used to confirm a result (README.md).
const (
	defaultSeed = 1
	heldOutSeed = 4242
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "stream", "workload name: stream | stream_lsh | reobserve")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 20, "replay length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		workdir = flag.String("workdir", ".bench_build", "directory for data directories and trace files")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	in, err := buildInput(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(workdir, fmt.Sprintf("run-%s-%d", name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	base, err := runPass(w, in, seconds, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: base.checkErr == nil, Attempted: base.attempted, Failed: base.failed}
	report(base)
	if !traced {
		res.Metrics, err = base.endToEnd()
		return res, err
	}
	tr := newTracer()
	tp, err := runPass(w, in, seconds, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	report(tp)
	res.Correct = res.Correct && tp.checkErr == nil
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	traceDir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)), tr.snapshot()); err != nil {
		return nil, err
	}
	res.Metrics, err = tp.perLayer(base)
	return res, err
}

// report prints a pass's correctness failure and first request error to
// standard error; the verdict itself goes into the result.
func report(p *pass) {
	if p.checkErr != nil {
		fmt.Fprintln(os.Stderr, "replaybench: correctness check failed:", p.checkErr)
	}
	if p.log.firstErr != nil {
		fmt.Fprintln(os.Stderr, "replaybench: first failed request:", p.log.firstErr)
	}
}
