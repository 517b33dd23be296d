package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/obs"
	"slim/internal/server"
	"slim/internal/storage"
)

// runJournal holds every run of a pass (a 30 s pass at a 50 ms tick
// makes about 600), so the run spans come from the journal whole.
const runJournal = 8192

// stack is one in-process slimd, assembled the way cmd/slimd assembles
// it, serving on a loopback port.
type stack struct {
	dir, walArchive string
	eng             *engine.Engine
	store           *storage.Store
	plane           *ingest.Plane
	httpSrv         *http.Server
	serveErr        chan error
	base            string
	// producer and probe are the only two client connections.
	producer, probe *http.Client
}

// engineConfig is the engine configuration of a workload, shared by the
// served stack and the from-scratch reference engine.
func engineConfig(w workload, reg *obs.Registry) engine.Config {
	return engine.Config{
		Shards:     engine.DefaultShards,
		Link:       w.linkConfig(),
		Debounce:   debounce,
		Registry:   reg,
		RunJournal: runJournal,
	}
}

// boot brings a stack up in a fresh data directory under dir and waits
// until /readyz answers 200. With a tracer, the HTTP handler and the WAL
// logger are wrapped so their spans are recorded.
func boot(dir string, w workload, in *input, tr *tracer) (*stack, error) {
	st := &stack{dir: filepath.Join(dir, "data"), walArchive: filepath.Join(dir, "wal-archive")}
	if err := os.MkdirAll(st.walArchive, 0o755); err != nil {
		return nil, err
	}
	// slimd logs one line per request; the benchmark keeps that work and
	// drops the text.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	registry := obs.NewRegistry()
	obs.RegisterRuntime(registry)
	engCfg := engineConfig(w, registry)
	engCfg.Logger = logger

	var engRef atomic.Pointer[engine.Engine]
	eng, store, _, err := storage.Recover(st.dir, in.seedE, in.seedI, engCfg, storage.Options{
		FsyncInterval: storage.DefaultFsyncInterval,
		Logger:        logger,
		Registry:      registry,
		FS:            archiveFS{FS: storage.OSFS, archive: st.walArchive},
		OnRelog: func(tag byte, recs []slim.Record) {
			e := engRef.Load()
			if e == nil {
				return
			}
			if tag == storage.TagE {
				e.BufferE(recs...)
			} else {
				e.BufferI(recs...)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("recovering data directory: %w", err)
	}
	engRef.Store(eng)
	st.eng, st.store = eng, store
	eng.Start()
	st.plane = ingest.NewPlane(eng, ingest.Config{Registry: registry})
	if _, _, ok := eng.Result(); !ok {
		if s := eng.Stats(); s.EntitiesE+s.EntitiesI > 0 || eng.Pending() > 0 {
			eng.Run()
		}
	}
	srv := server.New(eng, logger,
		server.WithIngestPlane(st.plane),
		server.WithRegistry(registry),
	)
	srv.AttachStore(store)
	handler := srv.Handler()
	if tr != nil {
		st.plane.AttachLogger(tracedLogger{t: tr, next: store})
		handler = tr.handler(handler)
	}
	srv.SetReady()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.httpSrv.Serve(ln) }()
	st.producer, st.probe = newClient(), newClient()

	if err := st.waitReady(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

func (st *stack) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := st.probe.Get(st.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the stack down in slimd's order: HTTP server, ingest
// plane, engine, then the store, whose Close takes the final checkpoint.
func (st *stack) close() error {
	var errs []error
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-st.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.producer.CloseIdleConnections()
		st.probe.CloseIdleConnections()
	}
	if st.plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.plane.Drain(ctx))
		cancel()
	}
	st.eng.Close()
	errs = append(errs, st.store.Close())
	return errors.Join(errs...)
}

// archiveFS keeps every WAL segment the store deletes: it hard-links the
// segment into the archive directory before the removal goes through,
// so the whole log of a pass can be replayed after checkpoints have
// truncated it.
type archiveFS struct {
	storage.FS
	archive string
}

func (a archiveFS) Remove(name string) error {
	if isSegment(name) {
		if err := os.Link(name, filepath.Join(a.archive, filepath.Base(name))); err != nil {
			return fmt.Errorf("archiving WAL segment: %w", err)
		}
	}
	return a.FS.Remove(name)
}

func isSegment(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".seg")
}

// archiveLive links the segments still in the data directory into the
// archive; call it after the store is closed.
func (st *stack) archiveLive() error {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !isSegment(e.Name()) {
			continue
		}
		dst := filepath.Join(st.walArchive, e.Name())
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Link(filepath.Join(st.dir, e.Name()), dst); err != nil {
			return err
		}
	}
	return nil
}
