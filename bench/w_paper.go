package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"qswitch/internal/experiments"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/shard"
	"qswitch/internal/stats"
)

// paperIDs are the experiments behind Theorems 1-4.
var paperIDs = []string{"e1", "e2", "e3", "e4"}

// paperTables is what `switchbench -run e1,e2,e3,e4` costs a reader who
// reproduces the paper's four ratio tables: the scalar in-process backend
// at full settings. The exact offline judges do nearly all the work;
// engines, generators, fleet and shard do next to nothing, so an engine
// change must read flat here.
type paperTables struct {
	opts  experiments.Options
	count estimationCount
}

// estimationCount is the seeds and switch-slots each experiment's ratio
// estimations ask for.
type estimationCount struct {
	seeds, slots map[string]int64
}

// countEstimations finds out how many seeds and switch-slots E1-E4 hand
// their estimators. The scalar backend builds its workloads inside the
// experiment, where the harness cannot see them; a chunk service is shown
// every request. This one answers each seed with a ratio of 1 without
// simulating anything, so the dry run costs milliseconds and its tables
// are discarded.
func countEstimations(opts experiments.Options) (estimationCount, error) {
	c := estimationCount{seeds: map[string]int64{}, slots: map[string]int64{}}
	for _, id := range paperIDs {
		dry := &dryService{}
		o := opts
		o.Shard = dry
		if _, err := runExperiment(id, o); err != nil {
			return c, fmt.Errorf("count %s: %w", id, err)
		}
		c.seeds[id], c.slots[id] = dry.seeds, dry.slots
	}
	return c, nil
}

// dryService counts the chunks it is asked for and evaluates nothing.
type dryService struct {
	mu           sync.Mutex
	seeds, slots int64
}

func (d *dryService) RatioChunk(_ context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	n := req.K1 - req.K0
	d.mu.Lock()
	d.seeds += int64(n)
	d.slots += int64(n) * int64(req.Cfg.Slots)
	d.mu.Unlock()
	outs := make([]ratio.SeedOutcome, n)
	for i := range outs {
		outs[i] = ratio.SeedOutcome{Seed: req.BaseSeed + int64(req.K0+i), Ratio: 1}
	}
	return outs, nil
}

// wholeEstimation is a ShardChunk no estimation reaches: each estimation
// arrives at the localService as one chunk, evaluated start to end by one
// judge, exactly as ratio.Run would.
const wholeEstimation = 1 << 30

func (w *paperTables) setup(e *env) (err error) {
	w.opts = experiments.Options{Seed: e.seed, Quick: e.smoke}
	w.count, err = countEstimations(w.opts)
	return err
}

func (w *paperTables) pass(p *pass) {
	for _, id := range paperIDs {
		p.cell(id, func(sp *span) (string, int64, int64, error) {
			o := w.opts
			if p.tr != nil {
				// The scalar path builds its policies, judges and
				// generators inside the experiment, out of reach. Routing
				// the estimations through a chunk service hands them to
				// the harness as specs it can resolve and decorate.
				o.Shard, o.ShardChunk = &localService{tr: p.tr, parent: sp}, wholeEstimation
			}
			digest, err := runExperiment(id, o)
			return digest, w.count.seeds[id], w.count.slots[id], err
		})
	}
}

// runExperiment runs one experiment and digests its tables as CSV. A
// `within` column that is not `ok` everywhere is an error: a measured ratio
// crossed its proven bound.
func runExperiment(id string, o experiments.Options) (string, error) {
	exp, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("experiment %q not registered", id)
	}
	tables, err := exp.Run(o)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.RenderCSV(&buf)
		if err := checkWithin(tb); err != nil {
			return "", fmt.Errorf("%s: %w", id, err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return "csv_sha256=" + hex.EncodeToString(sum[:]), nil
}

func checkWithin(tb *stats.Table) error {
	for col, h := range tb.Headers {
		if h != "within" {
			continue
		}
		for _, row := range tb.Rows {
			if row[col] != "ok" {
				return fmt.Errorf("table %q: a ratio exceeds its paper bound: %v", tb.Title, row)
			}
		}
	}
	return nil
}

func (w *paperTables) layers(lv *layerView) map[string]float64 {
	judge := func(name string) float64 { return lv.ix.sum("offline.judge/"+name, "").perCall() / 1e3 }
	gen, alg, jd := lv.frac("packet.generate", ""), lv.frac("switchsim.run", ""), lv.frac("offline.judge", "")
	out := map[string]float64{
		"offline.exact_unit_cioq_us_per_seed":      judge("exactunit.cioq"),
		"offline.exact_unit_xbar_us_per_seed":      judge("exactunit.xbar"),
		"offline.exact_weighted_cioq_us_per_seed":  judge("exactweighted.cioq"),
		"offline.exact_weighted_xbar_us_per_seed":  judge("exactweighted.xbar"),
		"offline.judge_busy_frac.paper_tables":     jd,
		"offline.judge_solves":                     float64(lv.ix.sum("offline.judge", "").calls) / float64(max(lv.passes, 1)),
		"switchsim.micro_us_per_seed":              lv.ix.sum("switchsim.run", "").perCall() / 1e3,
		"ratio.driver_self_frac.paper_tables":      max(0, 1-gen-alg-jd),
		"obs.probes_on_overhead_frac.paper_tables": lv.overhead("probed"),
	}
	for _, id := range paperIDs {
		out["experiments.table_s."+id] = float64(lv.ix.sum("cell:"+id, "").ns) / 1e9 / float64(max(lv.passes, 1))
	}
	return out
}

func (w *paperTables) close() error { return nil }

// localService is a ratio.ChunkService that evaluates chunks in process on
// the scalar engine — ratio.ScalarChunks, the path ratio.Run takes — after
// resolving the request's specs the way a shard worker does, with the
// generator, the policy run and the judge decorated. It is how a traced
// pass sees inside the paper tables; the tables stay byte-identical, which
// the golden checks. Chunks are serialized: spans of chunks running
// together on two cores would sum to several times the pass.
type localService struct {
	mu     sync.Mutex
	tr     *tracer
	parent *span
}

func (s *localService) RatioChunk(ctx context.Context, req ratio.ChunkRequest) ([]ratio.SeedOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	alg, _, err := shard.ResolvePolicy(req.Policy, req.Crossbar)
	if err != nil {
		return nil, err
	}
	judge, err := shard.ResolveJudge(req.Judge, req.Crossbar)
	if err != nil {
		return nil, err
	}
	var mg, ma, mj timer
	model := ".cioq"
	if req.Crossbar {
		model = ".xbar"
	}
	sp := s.tr.begin(s.parent, "ratio.chunk")
	var gen packet.Generator = timedGen{req.Gen, &mg}
	outs, err := ratio.ScalarChunks(req.Cfg, timedAlg(alg, &ma), timedJudges(judge, &mj), gen, req.BaseSeed)(ctx, req.K0, req.K1)
	s.tr.flush(sp, "packet.generate", &mg)
	s.tr.flush(sp, "switchsim.run", &ma)
	s.tr.flush(sp, "offline.judge/"+req.Judge+model, &mj)
	sp.end(int64(req.K1 - req.K0))
	return outs, err
}
