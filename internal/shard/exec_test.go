package shard

import (
	"fmt"
	"testing"
	"time"

	"qswitch/internal/adversary"
)

// TestExecutorRejectsMalformedChunks feeds the executor chunk specs with
// one bad field each, as a worker may receive them over TCP. A geometry or
// search space no candidate can be drawn on is a terminal chunk error that
// names the field; any other bad field stays a per-seed error. Every call
// runs under a deadline and a recover, so a spec that hangs or panics the
// executor fails its own case.
func TestExecutorRejectsMalformedChunks(t *testing.T) {
	gen, err := encodeGen(microGen)
	if err != nil {
		t.Fatal(err)
	}
	ratioChunk := func(edit func(*ratioChunkMsg)) func(*Executor) (string, error) {
		return func(e *Executor) (string, error) {
			msg := &ratioChunkMsg{Cfg: microCfg, Policy: "gm", Judge: "exactunit", Gen: gen, BaseSeed: 1, K1: 1}
			edit(msg)
			res, err := e.RatioChunk(msg)
			if err != nil {
				return "", err
			}
			return res.Seeds[0].Err, nil
		}
	}
	huntChunk := func(edit func(*huntChunkMsg)) func(*Executor) (string, error) {
		return func(e *Executor) (string, error) {
			msg := &huntChunkMsg{Cfg: microCfg, Policy: "gm", Judge: "exactunit", R1: 1,
				Search: adversary.SearchOptions{Inputs: 2, Outputs: 2, MaxSlots: 3, MaxPackets: 4, Iterations: 5, Seed: 1}}
			edit(msg)
			_, err := e.HuntChunk(msg)
			return "", err
		}
	}
	for _, tc := range []struct {
		name     string
		run      func(*Executor) (string, error)
		wantErr  string // the terminal chunk error, or "" for none
		wantSeed string // seed 0's error when the chunk runs
	}{
		{"ratio, well formed", ratioChunk(func(*ratioChunkMsg) {}), "", ""},
		{"ratio, no outputs", ratioChunk(func(m *ratioChunkMsg) { m.Cfg.Outputs = 0 }),
			"shard: ratio chunk cfg: need at least 1 input and 1 output, got Inputs 2, Outputs 0", ""},
		{"ratio, no inputs", ratioChunk(func(m *ratioChunkMsg) { m.Cfg.Inputs = 0 }),
			"shard: ratio chunk cfg: need at least 1 input and 1 output, got Inputs 0, Outputs 2", ""},
		{"ratio, no input buffer", ratioChunk(func(m *ratioChunkMsg) { m.Cfg.InputBuf = 0 }),
			"", "offline optimum: switchsim: input buffer capacity 0 < 1"},
		{"hunt, well formed", huntChunk(func(*huntChunkMsg) {}), "", ""},
		{"hunt, no input buffer", huntChunk(func(m *huntChunkMsg) { m.Cfg.InputBuf = 0 }),
			"shard: hunt chunk cfg: switchsim: input buffer capacity 0 < 1", ""},
		{"hunt, crossbar without crosspoint buffer", huntChunk(func(m *huntChunkMsg) {
			m.Crossbar, m.Policy, m.Cfg.CrossBuf = true, "cgu", 0
		}), "shard: hunt chunk cfg: switchsim: crossbar buffer capacity 0 < 1", ""},
		{"hunt, no search inputs", huntChunk(func(m *huntChunkMsg) { m.Search.Inputs = 0 }),
			"shard: hunt chunk search: Inputs 0 outside [1, 2]", ""},
		{"hunt, search outputs past the switch", huntChunk(func(m *huntChunkMsg) { m.Search.Outputs = 3 }),
			"shard: hunt chunk search: Outputs 3 outside [1, 2]", ""},
		{"hunt, no slots", huntChunk(func(m *huntChunkMsg) { m.Search.MaxSlots = 0 }),
			"shard: hunt chunk search: MaxSlots 0 < 1", ""},
		{"hunt, no packets", huntChunk(func(m *huntChunkMsg) { m.Search.MaxPackets = 0 }),
			"shard: hunt chunk search: MaxPackets 0 < 1", ""},
	} {
		type result struct {
			seedErr string
			err     error
		}
		done := make(chan result, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- result{err: fmt.Errorf("panic: %v", p)}
				}
			}()
			seedErr, err := tc.run(NewExecutor())
			done <- result{seedErr, err}
		}()
		select {
		case r := <-done:
			gotErr := ""
			if r.err != nil {
				gotErr = r.err.Error()
			}
			if gotErr != tc.wantErr {
				t.Errorf("%s: chunk error %q, want %q", tc.name, gotErr, tc.wantErr)
			}
			if r.seedErr != tc.wantSeed {
				t.Errorf("%s: seed error %q, want %q", tc.name, r.seedErr, tc.wantSeed)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the executor did not return within 5 s", tc.name)
		}
	}
}
