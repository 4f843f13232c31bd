package shard

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/ratio"
)

// TestGenCodecRoundTrip: every catalog generator must survive
// encode -> JSON -> decode field-identically, so a worker draws exactly
// the coordinator's workloads.
func TestGenCodecRoundTrip(t *testing.T) {
	gens := []packet.Generator{
		packet.Bernoulli{Load: 0.9},
		packet.Bernoulli{Load: 0.55, Values: packet.UnitValues{}},
		packet.Hotspot{Load: 0.8, HotOut: 1, HotFrac: 0.6, Values: packet.TwoValued{Alpha: 7, PHigh: 0.25}},
		packet.Diagonal{Load: 0.7, OffFrac: 0.125, Values: packet.UniformValues{Hi: 100}},
		packet.Bursty{OnLoad: 0.95, POnOff: 0.1, POffOn: 0.3, Uniform: true, Values: packet.ZipfValues{Hi: 64, S: 1.25}},
		packet.Permutation{Load: 0.85, Values: packet.GeometricValues{P: 0.5, Hi: 32}},
		packet.PoissonBurst{OffMean: 40, BurstMean: 4.5},
		packet.Diurnal{Load: 0.3, Period: 200, Amplitude: 0.9},
		packet.HeavyTail{Alpha: 1.5, MinGap: 2.25},
		packet.BurstyBlocking{OffMean: 30, Burst: 16, Fanin: 4,
			Values: packet.BimodalValues{LowHi: 4, HighLo: 90, HighHi: 110, PHigh: 0.05}},
		packet.CrossDrain{OffMean: 45, Sweep: 8, Depth: 2, Values: packet.UniformValues{Hi: 50}},
		packet.Fixed{Label: "handcrafted", Seq: packet.Sequence{{Arrival: 0, In: 0, Out: 1, Value: 3, ID: 0}}},
	}
	for _, g := range gens {
		gs, err := encodeGen(g)
		if err != nil {
			t.Errorf("encodeGen(%T): %v", g, err)
			continue
		}
		// Through JSON, as the wire would carry it.
		var wire genSpec
		if err := json.Unmarshal(marshalMsg(gs), &wire); err != nil {
			t.Errorf("json round trip %T: %v", g, err)
			continue
		}
		got, err := decodeGen(wire)
		if err != nil {
			t.Errorf("decodeGen(%T): %v", g, err)
			continue
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("generator round trip:\n got  %#v\n want %#v", got, g)
		}
	}
}

func TestGenCodecRejectsUnknown(t *testing.T) {
	if _, err := encodeGen(nil); err == nil {
		t.Error("encodeGen(nil) succeeded")
	}
	if _, err := decodeGen(genSpec{Type: "no-such-generator"}); err == nil {
		t.Error("decodeGen of unknown type succeeded")
	}
	if _, err := decodeValues(&valueSpec{Type: "no-such-dist"}); err == nil {
		t.Error("decodeValues of unknown type succeeded")
	}
	// An unregistered ValueDist is tagged at encode and must fail at decode.
	gs, err := encodeGen(packet.Bernoulli{Load: 0.5, Values: oddDist{}})
	if err != nil {
		t.Fatalf("encodeGen with odd dist: %v", err)
	}
	if _, err := decodeGen(gs); err == nil {
		t.Error("decodeGen of unknown value distribution succeeded")
	}
}

type oddDist struct{}

func (oddDist) Name() string              { return "odd" }
func (oddDist) Sample(_ *rand.Rand) int64 { return 1 }

// TestEncodeRatioChunkFailsFast: a generator that cannot cross the
// process boundary must be rejected before any dispatch.
func TestEncodeRatioChunkFailsFast(t *testing.T) {
	_, err := encodeRatioChunk(ratio.ChunkRequest{Gen: nil})
	if err == nil {
		t.Fatal("encodeRatioChunk with nil generator succeeded")
	}
}

func TestOutcomeCodecRoundTrip(t *testing.T) {
	outs := []ratio.SeedOutcome{
		{Seed: 1, Ratio: 1.25},
		{Seed: 2, Skipped: true},
		{Seed: 3, Err: errors.New("offline optimum: boom")},
	}
	msg := encodeOutcomes(outs)
	var wire ratioResultMsg
	if err := json.Unmarshal(marshalMsg(msg), &wire); err != nil {
		t.Fatalf("json round trip: %v", err)
	}
	got := decodeOutcomes(&wire)
	if len(got) != len(outs) {
		t.Fatalf("got %d outcomes, want %d", len(got), len(outs))
	}
	if got[0] != (ratio.SeedOutcome{Seed: 1, Ratio: 1.25}) {
		t.Errorf("outcome 0 = %+v", got[0])
	}
	if got[1] != (ratio.SeedOutcome{Seed: 2, Skipped: true}) {
		t.Errorf("outcome 1 = %+v", got[1])
	}
	if got[2].Err == nil || got[2].Err.Error() != "offline optimum: boom" {
		t.Errorf("outcome 2 error = %v, want the original text", got[2].Err)
	}
}

// TestCanonicalEncoding: the checkpoint key is the encoded spec, so
// encoding the same request twice must yield identical bytes.
func TestCanonicalEncoding(t *testing.T) {
	req := microReq()
	req.K0, req.K1 = 4, 8
	a, err := encodeRatioChunk(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeRatioChunk(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalMsg(a)) != string(marshalMsg(b)) {
		t.Error("encoding the same chunk request twice produced different bytes")
	}
}
