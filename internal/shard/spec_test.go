package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qswitch/internal/adversary"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
)

// TestGenCodecRoundTrip: every catalog generator must survive
// encode -> JSON -> decode field-identically, so a worker draws exactly
// the coordinator's workloads, and encode to the same bytes again — the
// genSpec bytes are checkpoint keys, so a silent change would orphan
// every checkpoint.
func TestGenCodecRoundTrip(t *testing.T) {
	for _, g := range registryGens() {
		if err := genRoundTrip(g); err != nil {
			t.Error(err)
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

// registryGens is one of every generator the wire codec names, with
// non-default parameters and value distributions.
func registryGens() []packet.Generator {
	return []packet.Generator{
		packet.Bernoulli{Load: 0.9},
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
		packet.FlowMix{FlowRate: 0.01, ElephantFrac: 0.3, RatPackets: 3, ElephantPackets: 40,
			Stages: []float64{0.5, 2}, StageSlots: 300, MaxActive: 9, Values: packet.UnitValues{}},
		packet.FlowMixForLoad(0.4, nil),
		packet.Fixed{Label: "handcrafted", Seq: packet.Sequence{{Arrival: 0, In: 0, Out: 1, Value: 3, ID: 0}}},
	}
}

// genRoundTrip encodes g, carries it through JSON, decodes it and encodes
// it again: the generator must come back deep-equal and the bytes equal.
func genRoundTrip(g packet.Generator) error {
	gs, err := encodeGen(g)
	if err != nil {
		return fmt.Errorf("encodeGen(%T): %v", g, err)
	}
	key := marshalMsg(gs)
	var wire genSpec
	if err := json.Unmarshal(key, &wire); err != nil {
		return fmt.Errorf("%T: json round trip: %v", g, err)
	}
	got, err := decodeGen(wire)
	if err != nil {
		return fmt.Errorf("decodeGen(%T): %v", g, err)
	}
	if !reflect.DeepEqual(got, g) {
		return fmt.Errorf("generator round trip:\n got  %#v\n want %#v", got, g)
	}
	again, err := encodeGen(got)
	if err != nil {
		return fmt.Errorf("re-encoding %T: %v", got, err)
	}
	if b := marshalMsg(again); !bytes.Equal(b, key) {
		return fmt.Errorf("%T: genSpec bytes changed across a round trip:\n %s\n %s", g, key, b)
	}
	return nil
}

// FuzzChunkSpecDecode feeds raw bytes to the worker's chunk-spec decode
// path — the JSON decode of a ratio or hunt chunk and, for a ratio chunk,
// decodeGen — which must fail, or yield a spec whose canonical encoding
// decodes back to the same spec and whose generator survives the codec.
// The first byte picks the message kind.
func FuzzChunkSpecDecode(f *testing.F) {
	req := microReq()
	req.K0, req.K1 = 4, 8
	for _, g := range append(registryGens(), req.Gen) {
		req.Gen = g
		msg, err := encodeRatioChunk(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{0}, marshalMsg(msg)...))
	}
	hunt := huntChunkMsg{Cfg: microCfg, Policy: "gm", Judge: "exactunit", R1: 2}
	hunt.Search = adversary.SearchOptions{Inputs: 2, Outputs: 2, MaxSlots: 4, MaxPackets: 6, MaxValue: 1, Iterations: 10, Seed: 3}
	f.Add(append([]byte{1}, marshalMsg(hunt)...))
	f.Add([]byte("\x00{\"gen\":{\"type\":\"flowmix\",\"stages\":[]}}"))
	f.Add([]byte("\x00{\"gen\":{\"type\":\"fixed\",\"seq\":[{\"ID\":1}]},\"k1\":-1}"))
	f.Add([]byte("\x01{\"search\":{\"Inputs\":1e3}}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, payload := data[0]%2, data[1:]
		if kind == 1 {
			var msg huntChunkMsg
			if json.Unmarshal(payload, &msg) != nil {
				return
			}
			canon := marshalMsg(msg)
			var again huntChunkMsg
			if err := json.Unmarshal(canon, &again); err != nil {
				t.Fatalf("canonical hunt spec %s does not decode: %v", canon, err)
			}
			if !reflect.DeepEqual(again, msg) {
				t.Fatalf("hunt spec changed across its canonical encoding:\n got  %+v\n want %+v", again, msg)
			}
			return
		}
		var msg ratioChunkMsg
		if json.Unmarshal(payload, &msg) != nil {
			return
		}
		gen, err := decodeGen(msg.Gen)
		if err != nil {
			return
		}
		canon := marshalMsg(msg)
		var again ratioChunkMsg
		if err := json.Unmarshal(canon, &again); err != nil {
			t.Fatalf("canonical ratio spec %s does not decode: %v", canon, err)
		}
		if b := marshalMsg(again); !bytes.Equal(b, canon) {
			t.Fatalf("canonical encoding is not a fixed point:\n %s\n %s", canon, b)
		}
		regen, err := decodeGen(again.Gen)
		if err != nil {
			t.Fatalf("canonical ratio spec %s: %v", canon, err)
		}
		if !reflect.DeepEqual(regen, gen) {
			t.Fatalf("generator changed across the canonical encoding:\n got  %#v\n want %#v", regen, gen)
		}
		msg.Gen, again.Gen = genSpec{}, genSpec{}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("ratio spec changed across its canonical encoding:\n got  %+v\n want %+v", again, msg)
		}
		if err := genRoundTrip(gen); err != nil {
			t.Fatal(err)
		}
	})
}
