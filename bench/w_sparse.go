package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"qswitch/internal/core"
	"qswitch/internal/obs"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// sparseStream uses the engines of denseSwitch the other way: almost
// every slot is jumped, so the packet stream producers, the stream cursor,
// the idle and quiescent jumps and trace decoding dominate and the policy
// is called rarely. A change that speeds dense scheduling but taxes the
// jump path shows as dense_switch up, sparse_stream down. The streamed
// cells also pin the O(window) memory claim: bench.alloc_mb.sparse_stream
// stays at tens of MiB over a horizon whose materialized form would be
// gigabytes.
type sparseStream struct {
	seed      int64
	flowSlots int
	flowMix   packet.FlowMix
	tracePath string
	traceCfg  switchsim.Config
	blockCfg  switchsim.Config
	blockSeq  packet.Sequence
	drainCfg  switchsim.Config
	drainSeq  packet.Sequence

	encodeNS, encodePkts float64
}

func (w *sparseStream) setup(e *env) error {
	w.seed = e.seed
	w.flowSlots = e.pick(40_000_000, 800_000)
	w.flowMix = packet.FlowMix{FlowRate: 0.0002, Values: packet.UniformValues{Hi: 20}}

	// The trace is denser than the streamed cells, so that decoding it is
	// not lost in the pass.
	const n = 4
	traceSlots := e.pick(10_000_000, 200_000)
	w.traceCfg = switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 8, Speedup: 2, Slots: traceSlots}
	seq := packet.FlowMix{FlowRate: 0.002, Values: packet.UniformValues{Hi: 20}}.
		Generate(rand.New(rand.NewSource(e.seed+2)), n, n, traceSlots)
	w.tracePath = filepath.Join(e.dir, "flowmix.trace")
	t0 := time.Now()
	if err := writeTrace(w.tracePath, &packet.Trace{Inputs: n, Outputs: n, Packets: seq}); err != nil {
		return err
	}
	w.encodeNS, w.encodePkts = float64(time.Since(t0)), float64(len(seq))

	const wide = 16
	blockSlots := e.pick(8_000_000, 160_000)
	w.blockCfg = switchsim.Config{Inputs: wide, Outputs: wide, InputBuf: 8, OutputBuf: 128, Speedup: 2, Slots: blockSlots}
	w.blockSeq = packet.BurstyBlocking{OffMean: 2000, Burst: 8, Values: packet.UniformValues{Hi: 20}}.
		Generate(rand.New(rand.NewSource(e.seed+3)), wide, wide, blockSlots)

	drainSlots := e.pick(600_000, 12_000)
	w.drainCfg = switchsim.Config{Inputs: wide, Outputs: wide, InputBuf: 4, OutputBuf: 4, CrossBuf: 2, Speedup: 1, Slots: drainSlots}
	w.drainSeq = packet.CrossDrain{OffMean: 200, Depth: 2, Values: packet.UniformValues{Hi: 20}}.
		Generate(rand.New(rand.NewSource(e.seed+4)), wide, wide, drainSlots)
	return nil
}

// writeTrace writes a binary trace file; the error of every step that can
// lose data is checked.
func writeTrace(path string, tr *packet.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := tr.WriteBinary(bw); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

func (w *sparseStream) pass(p *pass) {
	const n = 4
	flowCfg := switchsim.Config{Inputs: n, Outputs: n, InputBuf: 4, OutputBuf: 8, Speedup: 2, Slots: w.flowSlots}
	p.cell("flowmix_cioq_gm", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, flowCfg, func(s *sim) (*switchsim.Result, error) {
			src := packet.StreamTraffic(w.flowMix, rand.New(rand.NewSource(w.seed)), n, n, w.flowSlots)
			return switchsim.RunCIOQStream(flowCfg, s.cioq(&core.GM{}), s.stream(src, "packet.stream", genStride))
		})
	})
	p.cell("flowmix_xbar_cpg", func(sp *span) (string, int64, int64, error) {
		cfg := flowCfg
		cfg.CrossBuf, cfg.RecordLatency, cfg.StreamMetrics = 2, true, true
		return p.simulate(sp, cfg, func(s *sim) (*switchsim.Result, error) {
			src := packet.StreamTraffic(w.flowMix, rand.New(rand.NewSource(w.seed+1)), n, n, w.flowSlots)
			return switchsim.RunCrossbarStream(cfg, s.crossbar(&core.CPG{}), s.stream(src, "packet.stream", genStride))
		})
	})
	p.cell("trace_replay_gm", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.traceCfg, func(s *sim) (*switchsim.Result, error) {
			ts, err := packet.OpenTraceStream(w.tracePath)
			if err != nil {
				return nil, err
			}
			defer ts.Close()
			return switchsim.RunCIOQStream(w.traceCfg, s.cioq(&core.GM{}), s.stream(ts, "packet.trace_decode", sampleStride))
		})
	})
	p.cell("blocking_quiescent_pg", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.blockCfg, func(s *sim) (*switchsim.Result, error) {
			return switchsim.RunCIOQ(w.blockCfg, s.cioq(&core.PG{}), w.blockSeq)
		})
	})
	p.cell("crossdrain_cgu", func(sp *span) (string, int64, int64, error) {
		return p.simulate(sp, w.drainCfg, func(s *sim) (*switchsim.Result, error) {
			return switchsim.RunCrossbar(w.drainCfg, s.crossbar(&core.CGU{}), w.drainSeq)
		})
	})
}

func (w *sparseStream) layers(lv *layerView) map[string]float64 {
	selfPerSlot := func(cell string) float64 {
		run := lv.ix.sum("switchsim.run", "cell:"+cell)
		return float64(lv.ix.selfSum("switchsim.run", "cell:"+cell)) / float64(max(run.items, 1))
	}
	jumped := 0.0
	if s := lv.counter(obs.MetricEngineSlots); s > 0 {
		jumped = lv.counter(obs.MetricEngineJumpedSlots) / s
	}
	return map[string]float64{
		"packet.stream_ns_per_pkt":              lv.ix.sum("packet.stream", "").perItem(),
		"packet.stream_busy_frac":               lv.frac("packet.stream", "") + lv.frac("packet.trace_decode", ""),
		"packet.trace_decode_ns_per_pkt":        lv.ix.sum("packet.trace_decode", "").perItem(),
		"packet.trace_encode_ns_per_pkt":        w.encodeNS / max(w.encodePkts, 1),
		"switchsim.stream_ns_per_slot.cioq_gm":  selfPerSlot("flowmix_cioq_gm"),
		"switchsim.stream_ns_per_slot.xbar_cpg": selfPerSlot("flowmix_xbar_cpg"),
		"switchsim.quiescent_ns_per_slot":       selfPerSlot("blocking_quiescent_pg"),
		"switchsim.crossdrain_ns_per_slot":      selfPerSlot("crossdrain_cgu"),
		"switchsim.jumped_frac":                 jumped,
		"switchsim.jumps":                       lv.counter(obs.MetricEngineJumps),
	}
}

func (w *sparseStream) close() error { return os.Remove(w.tracePath) }
