package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qswitch/internal/experiments"
	"qswitch/internal/ratio"
	"qswitch/internal/shard"
)

// shardWorkers is the worker count: with the coordinator blocked on its
// workers that is two runnable processes, the sizing rule's limit.
const shardWorkers = 2

// shardChunk is the seeds-per-chunk granularity (378 chunks at full scale).
const shardChunk = 8

// shardedService is the paperTables pass through the service tier: a
// coordinator over two worker processes (this binary, self-exec'd with
// -worker) with an fsync'd checkpoint log, then a second coordinator over
// the same log that re-answers every chunk without executing one. The
// compute is identical to paper_tables, so the difference is the tier:
// spec and frame codec, stdio pipes, dispatch, checkpoint append+fsync,
// worker spawn.
type shardedService struct {
	e     *env
	opts  experiments.Options
	count estimationCount
	ref   map[string]string // in-process table digests
	refCP float64           // CPU seconds of the in-process reference pass
	n     int               // passes run, for unique checkpoint names
}

func (w *shardedService) setup(e *env) (err error) {
	w.e = e
	w.opts = experiments.Options{Seed: e.seed, Quick: e.smoke}
	if w.count, err = countEstimations(w.opts); err != nil {
		return err
	}
	w.ref = map[string]string{}
	cpu0 := cpuSeconds()
	for _, id := range paperIDs {
		if w.ref[id], err = runExperiment(id, w.opts); err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
	}
	w.refCP = cpuSeconds() - cpu0
	return nil
}

func (w *shardedService) extraKinds() []string { return []string{"nockpt"} }

func (w *shardedService) pass(p *pass) {
	w.n++
	ckpt := "" // "nockpt": the same service without its checkpoint log
	if p.kind != "nockpt" {
		ckpt = filepath.Join(w.e.dir, fmt.Sprintf("ckpt-%d.log", w.n))
		defer os.Remove(ckpt)
	}
	workers := make([]shard.WorkerSpec, shardWorkers)
	for i := range workers {
		workers[i] = shard.WorkerSpec{Cmd: w.e.self}
	}

	t0 := time.Now()
	child0 := childCPUSeconds()
	st, err := w.serve(p, "shard.chunk", shard.CoordinatorOptions{Workers: workers, CheckpointPath: ckpt},
		func(id string, run func(*span) (string, error)) {
			p.cell(id, func(sp *span) (string, int64, int64, error) {
				digest, err := run(sp)
				return digest, w.count.seeds[id], w.count.slots[id], err
			})
		})
	served := time.Since(t0).Seconds()
	p.note("serve_s", served)
	p.note("worker_busy_frac", (childCPUSeconds()-child0)/(shardWorkers*served))
	p.note("chunks_executed", float64(st.ChunksExecuted))
	p.note("retries", float64(st.Retries))
	if err != nil {
		p.cell("service", func(*span) (string, int64, int64, error) { return "", 1, 0, err })
		return
	}
	if ckpt == "" {
		return
	}
	if fi, err := os.Stat(ckpt); err == nil {
		p.note("checkpoint_bytes", float64(fi.Size()))
	}

	// Resume: a fresh coordinator over the same log, with no workers to
	// fall back on, must answer every chunk from the checkpoint.
	t1 := time.Now()
	p.cell("resume", func(sp *span) (string, int64, int64, error) {
		var seeds int64
		var firstErr error
		hits, err := w.serve(p, "shard.checkpoint_hit", shard.CoordinatorOptions{CheckpointPath: ckpt},
			func(id string, run func(*span) (string, error)) {
				seeds += w.count.seeds[id]
				if _, err := run(sp); err != nil && firstErr == nil {
					firstErr = err
				}
			})
		if err == nil {
			err = firstErr
		}
		if err == nil && (hits.ChunksExecuted != 0 || hits.CheckpointHits != st.ChunksExecuted) {
			err = fmt.Errorf("resume executed %d chunks and hit %d of %d checkpointed",
				hits.ChunksExecuted, hits.CheckpointHits, st.ChunksExecuted)
		}
		p.note("checkpoint_hits", float64(hits.CheckpointHits))
		return fmt.Sprintf("executed=%d hits=%d", hits.ChunksExecuted, hits.CheckpointHits), seeds, 0, err
	})
	p.note("resume_ms", float64(time.Since(t1))/1e6)
}

// serve runs E1-E4 through one coordinator. each is handed every
// experiment in turn and decides what cell it lands in; run renders the
// experiment's tables through the coordinator and fails if they differ from
// the in-process tables. Closing the coordinator reaps its workers, so
// their CPU shows in this process's child rusage.
func (w *shardedService) serve(p *pass, spanName string, co shard.CoordinatorOptions,
	each func(id string, run func(*span) (string, error))) (shard.CoordinatorStats, error) {
	t0 := time.Now()
	c, err := shard.NewCoordinator(co)
	if err != nil {
		return shard.CoordinatorStats{}, err
	}
	var svc ratio.ChunkService = c
	var ts *timedService
	if p.tr != nil {
		ts = &timedService{svc: c, tr: p.tr, name: spanName}
		svc = ts
	}
	for _, id := range paperIDs {
		each(id, func(sp *span) (string, error) {
			if ts != nil {
				ts.parent = sp
			}
			o := w.opts
			o.Shard, o.ShardChunk = svc, shardChunk
			digest, err := runExperiment(id, o)
			if err == nil && digest != w.ref[id] {
				err = fmt.Errorf("%s tables through the service differ from the in-process tables", id)
			}
			return digest, err
		})
	}
	if ts != nil && len(co.Workers) > 0 {
		p.note("spawn_ms", float64(ts.first.Sub(t0))/1e6)
	}
	st := c.Stats()
	err = c.Close()
	if err == nil && len(co.Workers) > 0 && st.LocalChunks != 0 {
		err = fmt.Errorf("%d chunks fell back to in-process execution", st.LocalChunks)
	}
	return st, err
}

func (w *shardedService) layers(lv *layerView) map[string]float64 {
	rtt := lv.ix.durations("shard.chunk")
	hit := lv.ix.sum("shard.checkpoint_hit", "")
	out := map[string]float64{
		"shard.chunk_rtt_us_p50":     quantile(rtt, 0.50) / 1e3,
		"shard.chunk_rtt_us_p99":     quantile(rtt, 0.99) / 1e3,
		"shard.worker_busy_frac":     lv.med("bare", "worker_busy_frac"),
		"shard.spawn_ms":             lv.med("traced", "spawn_ms"),
		"shard.resume_ms":            lv.med("bare", "resume_ms"),
		"shard.checkpoint_hit_us":    hit.perCall() / 1e3,
		"shard.checkpoint_bytes":     lv.med("bare", "checkpoint_bytes"),
		"shard.chunks_executed":      lv.med("bare", "chunks_executed"),
		"shard.checkpoint_hits":      lv.med("bare", "checkpoint_hits"),
		"shard.retries":              lv.med("bare", "retries"),
		"shard.checkpoint_cost_frac": 0,
		"shard.overhead_frac":        0,
	}
	if base := lv.med("nockpt", "serve_s"); base > 0 {
		out["shard.checkpoint_cost_frac"] = lv.med("bare", "serve_s")/base - 1
	}
	if w.refCP > 0 {
		out["shard.overhead_frac"] = lv.med("bare", "cpu_s")/w.refCP - 1
	}
	return out
}

func (w *shardedService) close() error { return nil }

// timedService times every chunk that crosses into a ratio.ChunkService
// as its own span; RunSharded issues an estimation's chunks together, so
// the spans overlap and a chunk's span includes its wait for a worker. It
// also notes when the first chunk came back: until then the coordinator was
// spawning and greeting its workers.
type timedService struct {
	svc    ratio.ChunkService
	tr     *tracer
	parent *span // the running experiment's cell; set between experiments
	name   string
	once   sync.Once
	first  time.Time
}

func (s *timedService) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	sp := s.tr.begin(s.parent, s.name)
	outs, err := s.svc.RatioChunk(ctx, req)
	sp.end(int64(req.K1 - req.K0))
	s.once.Do(func() { s.first = time.Now() })
	return outs, err
}
