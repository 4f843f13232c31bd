package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qswitch/internal/obs"
	"qswitch/internal/ratio"
	"qswitch/internal/testkit/promcheck"
)

// WaitReady blocks until every configured worker slot has settled for the
// first time — finished its handshake and is serving, or spent its respawn
// budget and is excluded — so that the chunks submitted next are spread
// over the whole fleet instead of racing the slower handshakes. It returns
// ctx's error if ctx ends first and ErrClosed if the coordinator is closed
// first; with no workers configured it returns at once.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	for _, hs := range c.health {
		select {
		case <-hs.settled:
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return ErrClosed
		}
	}
	return nil
}

func TestFrameVersionRange(t *testing.T) {
	// Both live protocol versions roundtrip through the codec.
	for v := byte(MinProtocolVersion); v <= ProtocolVersion; v++ {
		frame := appendFrameV(nil, v, ftHeartbeat, []byte(`{"chunks":1}`))
		ft, payload, _, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if ft != ftHeartbeat || string(payload) != `{"chunks":1}` {
			t.Fatalf("v%d: ft=%d payload=%q", v, ft, payload)
		}
	}
	// Versions outside [MinProtocolVersion, ProtocolVersion] are rejected
	// before the CRC is even checked.
	for _, v := range []byte{0, ProtocolVersion + 1} {
		frame := appendFrameV(nil, v, ftHeartbeat, nil)
		_, _, _, err := readFrame(bytes.NewReader(frame))
		if err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Fatalf("v%d: err = %v, want protocol version error", v, err)
		}
	}
}

func TestWorkerStatsPayloadRoundTrip(t *testing.T) {
	tr := &statsTracker{}
	tr.record(24, 2*time.Second)
	tr.record(8, 2*time.Second)
	payload := marshalMsg(tr.snapshot())
	var got WorkerStats
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("heartbeat payload does not decode: %v", err)
	}
	if got.Chunks != 2 || got.Units != 32 {
		t.Fatalf("stats = %+v, want 2 chunks / 32 units", got)
	}
	if got.UnitsPerSec != 8 {
		t.Errorf("UnitsPerSec = %v, want 8 (32 units over 4s busy)", got.UnitsPerSec)
	}
	if got.LastChunkMs != 2000 {
		t.Errorf("LastChunkMs = %v, want 2000", got.LastChunkMs)
	}
	// A v1 heartbeat has an empty payload; the coordinator must treat it
	// as "alive, no stats" — which is what noteBeat does with len()==0.
	if len(marshalMsg(WorkerStats{})) == 0 {
		t.Fatal("even zero stats marshal non-empty; emptiness is the v1 marker")
	}
}

// TestServeNegotiatesV1 handshakes at protocol version 1 and checks the
// worker frames the whole session — ack, heartbeats, result — at v1 with
// empty heartbeat payloads, the pre-telemetry wire format.
func TestServeNegotiatesV1(t *testing.T) {
	raw, w, _ := pipeSession(t, ServeOptions{HeartbeatEvery: time.Millisecond})
	var tee bytes.Buffer
	r := io.TeeReader(raw, &tee)

	hello := appendFrameV(nil, 1, ftHello, marshalMsg(helloMsg{Version: 1}))
	if _, err := w.Write(hello); err != nil {
		t.Fatal(err)
	}
	ft, payload, _, err := readFrame(r)
	if err != nil || ft != ftHelloAck {
		t.Fatalf("handshake: ft=%d err=%v", ft, err)
	}
	var ack helloMsg
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != 1 {
		t.Fatalf("ack version = %d, want the negotiated 1", ack.Version)
	}
	if got := tee.Bytes()[4]; got != 1 {
		t.Fatalf("ack framed at version %d, want 1", got)
	}

	req := microReq()
	req.K0, req.K1 = 0, 256
	msg, err := encodeRatioChunk(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(appendFrameV(nil, 1, ftRatioChunk, marshalMsg(msg))); err != nil {
		t.Fatal(err)
	}
	frameStart := tee.Len()
	for {
		ft, payload, n, err := readFrame(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got := tee.Bytes()[frameStart+4]; got != 1 {
			t.Fatalf("worker sent a version-%d frame on a v1 session", got)
		}
		frameStart += n
		if ft == ftHeartbeat {
			if len(payload) != 0 {
				t.Fatalf("v1 heartbeat carries %d payload bytes, want 0", len(payload))
			}
			continue
		}
		if ft != ftResult {
			t.Fatalf("got frame type %d, want result", ft)
		}
		break
	}
}

// TestServeV2HeartbeatStats checks that on a current-version session the
// heartbeats sent while a later chunk executes carry the session's
// cumulative WorkerStats.
func TestServeV2HeartbeatStats(t *testing.T) {
	r, w, _ := pipeSession(t, ServeOptions{HeartbeatEvery: 50 * time.Microsecond})
	handshake(t, r, w)

	// sendChunk returns the stats from the last heartbeat seen while the
	// chunk ran, and whether any heartbeat fired at all (fast chunks can
	// finish inside one heartbeat period).
	sendChunk := func(k0, k1 int) (WorkerStats, bool) {
		t.Helper()
		req := microReq()
		req.K0, req.K1 = k0, k1
		msg, err := encodeRatioChunk(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(w, ftRatioChunk, marshalMsg(msg)); err != nil {
			t.Fatal(err)
		}
		var last WorkerStats
		beat := false
		for {
			ft, payload, _, err := readFrame(r)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			switch ft {
			case ftHeartbeat:
				if len(payload) == 0 {
					t.Fatal("v2 heartbeat with empty payload")
				}
				if err := json.Unmarshal(payload, &last); err != nil {
					t.Fatalf("heartbeat stats do not decode: %v", err)
				}
				beat = true
			case ftResult:
				return last, beat
			default:
				t.Fatalf("unexpected frame type %d", ft)
			}
		}
	}

	sendChunk(0, 8)
	// Heartbeats during later chunks must report the prior chunks' work.
	for attempt := 0; attempt < 50; attempt++ {
		k0 := 8 + attempt*512
		stats, beat := sendChunk(k0, k0+512)
		if !beat {
			continue
		}
		if stats.Chunks < 1 || stats.Units < 8 {
			t.Fatalf("heartbeat stats %+v, want >=1 chunk / >=8 units from prior chunks", stats)
		}
		return
	}
	t.Fatal("no heartbeat observed across 50 chunks")
}

// TestCoordinatorHealthAndMetrics runs a sharded estimation over real
// worker subprocesses with a metrics registry installed and checks the
// per-worker health table and labeled coordinator counters add up.
func TestCoordinatorHealthAndMetrics(t *testing.T) {
	const runs = 24
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, CoordinatorOptions{
		Workers: workerSpecs(t, "", ""),
		Metrics: reg,
	})
	// Six micro-chunks can finish on one worker before the other's
	// handshake does; the assertions below are about a settled fleet.
	if err := c.WaitReady(context.Background()); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if _, err := ratio.RunSharded(context.Background(), c, microReq(), runs, 4); err != nil {
		t.Fatalf("RunSharded: %v", err)
	}

	health := c.Health()
	if len(health) != 2 {
		t.Fatalf("Health() has %d rows, want 2", len(health))
	}
	var done int64
	for _, h := range health {
		if h.Worker != 0 && h.Worker != 1 {
			t.Errorf("unexpected worker index %d", h.Worker)
		}
		if h.State != "serving" {
			t.Errorf("worker %d state = %q, want serving", h.Worker, h.State)
		}
		if h.Retries != 0 || h.Respawns != 0 {
			t.Errorf("worker %d: retries=%d respawns=%d, want 0/0 (no chaos)", h.Worker, h.Retries, h.Respawns)
		}
		done += h.ChunksDone
	}
	if done != 6 {
		t.Errorf("sum of ChunksDone = %d, want 6", done)
	}

	snap := reg.Snapshot()
	var counted float64
	for i := 0; i < 2; i++ {
		counted += snap[MetricShardWorkerChunks+`{worker="`+string(rune('0'+i))+`"}`]
	}
	if counted != 6 {
		t.Errorf("labeled chunk counters sum to %v, want 6; snapshot: %v", counted, snap)
	}
	// The registry must render as strictly parseable Prometheus text —
	// the same validation CI runs against a live worker's scrape.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := promcheck.Parse(&buf); err != nil {
		t.Fatalf("coordinator registry is not parseable: %v", err)
	}
}

// TestWaitReady covers the readiness barrier's four ways out: nothing to
// wait for, slots that settle by being excluded, a context that ends
// first, and a coordinator closed first.
func TestWaitReady(t *testing.T) {
	if err := newTestCoordinator(t, CoordinatorOptions{}).WaitReady(context.Background()); err != nil {
		t.Errorf("no workers: %v", err)
	}

	gone := newTestCoordinator(t, CoordinatorOptions{
		Workers:     []WorkerSpec{{Cmd: []string{filepath.Join(t.TempDir(), "no-such-worker")}}},
		MaxRespawns: 1,
	})
	if err := gone.WaitReady(context.Background()); err != nil {
		t.Errorf("unreachable worker: %v", err)
	}
	if h := gone.Health(); h[0].State != "excluded" {
		t.Errorf("unreachable worker settled as %q, want excluded", h[0].State)
	}

	// A peer that accepts and never answers the hello keeps its slot
	// connecting for as long as the test cares to look.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silent := newTestCoordinator(t, CoordinatorOptions{
		Workers:          []WorkerSpec{{Addr: ln.Addr().String()}},
		HeartbeatTimeout: time.Minute,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := silent.WaitReady(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: got %v, want context.Canceled", err)
	}
	silent.Close()
	if err := silent.WaitReady(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("closed coordinator: got %v, want ErrClosed", err)
	}
}
