package shard

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"time"

	"qswitch/internal/ratio"
)

// pipeSession drives Serve in process over pipes, returning the client's
// ends and a channel carrying Serve's return.
func pipeSession(t *testing.T, opts ServeOptions) (io.Reader, io.Writer, chan error) {
	t.Helper()
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- Serve(toWorkerR, fromWorkerW, opts)
		fromWorkerW.Close()
	}()
	t.Cleanup(func() {
		toWorkerW.Close()
		toWorkerR.Close()
	})
	return fromWorkerR, toWorkerW, done
}

func handshake(t *testing.T, r io.Reader, w io.Writer) {
	t.Helper()
	if err := writeFrame(w, ftHello, marshalMsg(helloMsg{Version: ProtocolVersion})); err != nil {
		t.Fatalf("send hello: %v", err)
	}
	ft, _, _, err := readFrame(r)
	if err != nil || ft != ftHelloAck {
		t.Fatalf("handshake: ft=%d err=%v", ft, err)
	}
}

// TestServeAnswersRatioChunk drives one chunk through the worker protocol
// in process and checks the outcomes equal a direct EvalChunk.
func TestServeAnswersRatioChunk(t *testing.T) {
	r, w, done := pipeSession(t, ServeOptions{HeartbeatEvery: 10 * time.Millisecond})
	handshake(t, r, w)

	req := microReq()
	req.K0, req.K1 = 0, 4
	msg, err := encodeRatioChunk(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(w, ftRatioChunk, marshalMsg(msg)); err != nil {
		t.Fatal(err)
	}
	// Skip heartbeats until the result lands.
	var payload []byte
	for {
		ft, p, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if ft == ftHeartbeat {
			continue
		}
		if ft != ftResult {
			t.Fatalf("got frame type %d, want result", ft)
		}
		payload = p
		break
	}
	var res ratioResultMsg
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	got := decodeOutcomes(&res)

	_, fleet, err := ResolvePolicy("gm", false)
	if err != nil {
		t.Fatal(err)
	}
	judge, err := ResolveJudge("exactunit", false)
	if err != nil {
		t.Fatal(err)
	}
	want := ratio.EvalChunk(microCfg, ratio.NewLanes(judge, fleet), microGen, 1, 0, 4, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served outcomes differ from direct EvalChunk:\n got  %+v\n want %+v", got, want)
	}

	// Clean shutdown: the worker returns nil.
	if err := writeFrame(w, ftShutdown, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v after shutdown, want nil", err)
	}
}

func TestServeRejectsVersionSkew(t *testing.T) {
	_, w, done := pipeSession(t, ServeOptions{})
	if err := writeFrame(w, ftHello, marshalMsg(helloMsg{Version: ProtocolVersion + 1})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve accepted a mismatched protocol version")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not reject the version skew")
	}
}

func TestServeChunkErrorForBadSpec(t *testing.T) {
	r, w, _ := pipeSession(t, ServeOptions{})
	handshake(t, r, w)
	req := microReq()
	req.Policy = "no-such-policy"
	req.K1 = 1
	msg, err := encodeRatioChunk(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(w, ftRatioChunk, marshalMsg(msg)); err != nil {
		t.Fatal(err)
	}
	for {
		ft, payload, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if ft == ftHeartbeat {
			continue
		}
		if ft != ftChunkError {
			t.Fatalf("got frame type %d, want chunk error", ft)
		}
		var ce chunkErrorMsg
		if err := json.Unmarshal(payload, &ce); err != nil {
			t.Fatal(err)
		}
		if ce.Msg == "" {
			t.Error("empty chunk error message")
		}
		return
	}
}
