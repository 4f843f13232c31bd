package shard

import (
	"context"
	"encoding/json"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// The BenchmarkShardedRatio* family measures what the service tier costs:
// an upper-bound-judged Monte-Carlo ratio estimation run through a
// coordinator with N live worker processes, every chunk
// travelling the full encode -> stdio -> worker -> decode -> merge loop.
// Worker processes are spawned once per benchmark, outside the timed
// region, so the numbers are steady-state dispatch + serialization +
// compute, not process startup.

// benchCfg is large enough that each chunk carries real simulation and
// judging work, so the overhead measurement is in the regime the service
// is for.
var benchCfg = switchsim.Config{
	Inputs: 8, Outputs: 8,
	InputBuf: 4, OutputBuf: 4, CrossBuf: 1,
	Speedup: 1, Slots: 256,
}

var benchGen = packet.Bernoulli{Load: 0.9}

const (
	benchRuns  = 64
	benchChunk = 4
)

func benchmarkShardedRatio(b *testing.B, workers int) {
	req := ratio.ChunkRequest{
		Cfg: benchCfg, Policy: "gm", Judge: "upperbound",
		Gen: benchGen, BaseSeed: 1,
	}
	ctx := context.Background()
	c := newTestCoordinator(b, CoordinatorOptions{
		Workers: workerSpecs(b, make([]string, workers)...),
	})
	estimate := func(baseSeed int64) (ratio.Estimate, error) {
		r := req
		r.BaseSeed = baseSeed
		return ratio.RunSharded(ctx, c, r, benchRuns, benchChunk)
	}
	// Warm the workers (and the fleet storage) before timing.
	if _, err := estimate(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedRatioW1(b *testing.B) { benchmarkShardedRatio(b, 1) }
func BenchmarkShardedRatioW2(b *testing.B) { benchmarkShardedRatio(b, 2) }
func BenchmarkShardedRatioW4(b *testing.B) { benchmarkShardedRatio(b, 4) }

// BenchmarkShardedChunkCodec isolates the wire cost of one chunk spec:
// encode + CRC framing + JSON parse + generator rebuild, no execution.
func BenchmarkShardedChunkCodec(b *testing.B) {
	req := ratio.ChunkRequest{
		Cfg: benchCfg, Policy: "gm", Judge: "upperbound",
		Gen: benchGen, BaseSeed: 1, K0: 0, K1: benchChunk,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg, err := encodeRatioChunk(req)
		if err != nil {
			b.Fatal(err)
		}
		frame := appendFrame(nil, ftRatioChunk, marshalMsg(msg))
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
		var wire ratioChunkMsg
		if err := json.Unmarshal(marshalMsg(msg), &wire); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeGen(wire.Gen); err != nil {
			b.Fatal(err)
		}
	}
}
