package shard

import (
	"encoding/json"
	"fmt"

	"qswitch/internal/adversary"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/switchsim"
)

// Wire messages. All payloads are JSON: Go's encoder emits struct fields
// in declaration order and renders float64 with the shortest
// exactly-round-tripping representation, so encoding is canonical — the
// encoded bytes of a chunk spec double as its checkpoint key — and
// numeric parameters survive the process boundary bit-for-bit.

// helloMsg opens a connection in both directions: the coordinator
// announces its protocol version, the worker acknowledges with its own.
type helloMsg struct {
	Version int `json:"version"`
	PID     int `json:"pid,omitempty"`
}

// ratioChunkMsg is the wire form of ratio.ChunkRequest: policy and judge
// are registry spec strings and the generator is flattened to a genSpec,
// so the worker can rebuild the exact evaluation closure the coordinator
// named.
type ratioChunkMsg struct {
	Cfg      switchsim.Config `json:"cfg"`
	Crossbar bool             `json:"crossbar,omitempty"`
	Policy   string           `json:"policy"`
	Judge    string           `json:"judge"`
	Gen      genSpec          `json:"gen"`
	BaseSeed int64            `json:"baseSeed"`
	K0       int              `json:"k0"`
	K1       int              `json:"k1"`
}

// seedResult is one seed's outcome on the wire. Err carries the error's
// text: per-seed errors are deterministic, so the text (not the Go error
// identity) is the contract, and the coordinator rebuilds an error with
// the same message.
type seedResult struct {
	Seed    int64   `json:"seed"`
	Ratio   float64 `json:"ratio,omitempty"`
	Skipped bool    `json:"skipped,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// ratioResultMsg answers a ratioChunkMsg with one result per seed in
// [K0, K1), in seed order.
type ratioResultMsg struct {
	Seeds []seedResult `json:"seeds"`
}

// chunkErrorMsg reports a deterministic chunk-level failure (unknown
// policy spec, unsupported generator). The coordinator fails the chunk
// immediately instead of retrying: re-running a deterministic failure
// cannot help.
type chunkErrorMsg struct {
	Msg string `json:"msg"`
}

// huntChunkMsg asks for restarts [R0, R1) of an adversary hunt.
type huntChunkMsg struct {
	Cfg      switchsim.Config        `json:"cfg"`
	Crossbar bool                    `json:"crossbar,omitempty"`
	Policy   string                  `json:"policy"`
	Judge    string                  `json:"judge"`
	Search   adversary.SearchOptions `json:"search"`
	R0       int                     `json:"r0"`
	R1       int                     `json:"r1"`
}

// huntResultMsg is the wire form of adversary.HuntResult.
type huntResultMsg struct {
	Seq      packet.Sequence `json:"seq"`
	Ratio    float64         `json:"ratio"`
	Restart  int             `json:"restart"`
	Accepted int             `json:"accepted"`
	Tried    int             `json:"tried"`
}

// encodeRatioChunk converts a ratio.ChunkRequest to its wire form; it
// fails fast (before any dispatch) on generators the codec cannot name.
func encodeRatioChunk(req ratio.ChunkRequest) (*ratioChunkMsg, error) {
	gs, err := encodeGen(req.Gen)
	if err != nil {
		return nil, err
	}
	return &ratioChunkMsg{
		Cfg: req.Cfg, Crossbar: req.Crossbar,
		Policy: req.Policy, Judge: req.Judge, Gen: gs,
		BaseSeed: req.BaseSeed, K0: req.K0, K1: req.K1,
	}, nil
}

// encodeOutcomes converts executor outcomes to wire results.
func encodeOutcomes(outs []ratio.SeedOutcome) *ratioResultMsg {
	res := &ratioResultMsg{Seeds: make([]seedResult, len(outs))}
	for i, o := range outs {
		sr := seedResult{Seed: o.Seed, Ratio: o.Ratio, Skipped: o.Skipped}
		if o.Err != nil {
			sr.Err = o.Err.Error()
			sr.Ratio = 0
		}
		res.Seeds[i] = sr
	}
	return res
}

// decodeOutcomes is encodeOutcomes' inverse; the rebuilt errors carry the
// original text, so the merged Estimate and its error messages match the
// in-process backends exactly.
func decodeOutcomes(res *ratioResultMsg) []ratio.SeedOutcome {
	outs := make([]ratio.SeedOutcome, len(res.Seeds))
	for i, sr := range res.Seeds {
		o := ratio.SeedOutcome{Seed: sr.Seed, Ratio: sr.Ratio, Skipped: sr.Skipped}
		if sr.Err != "" {
			o.Err = fmt.Errorf("%s", sr.Err)
			o.Ratio = 0
		}
		outs[i] = o
	}
	return outs
}

// genSpec is the flattened wire form of a packet.Generator: a type tag
// plus the union of all generator parameters (zero values omitted). The
// decoded generator is field-identical to the encoded one, so seeded
// workloads drawn on a worker match the coordinator's exactly.
type genSpec struct {
	Type      string          `json:"type"`
	Load      float64         `json:"load,omitempty"`
	OnLoad    float64         `json:"onLoad,omitempty"`
	POnOff    float64         `json:"pOnOff,omitempty"`
	POffOn    float64         `json:"pOffOn,omitempty"`
	Uniform   bool            `json:"uniform,omitempty"`
	HotOut    int             `json:"hotOut,omitempty"`
	HotFrac   float64         `json:"hotFrac,omitempty"`
	OffFrac   float64         `json:"offFrac,omitempty"`
	OffMean   float64         `json:"offMean,omitempty"`
	BurstMean float64         `json:"burstMean,omitempty"`
	Burst     int             `json:"burst,omitempty"`
	Fanin     int             `json:"fanin,omitempty"`
	Sweep     int             `json:"sweep,omitempty"`
	Depth     int             `json:"depth,omitempty"`
	Period    int             `json:"period,omitempty"`
	Amplitude float64         `json:"amplitude,omitempty"`
	Alpha     float64         `json:"alpha,omitempty"`
	MinGap    float64         `json:"minGap,omitempty"`
	FlowRate  float64         `json:"flowRate,omitempty"`
	EFrac     float64         `json:"eFrac,omitempty"`
	RatPkts   int             `json:"ratPkts,omitempty"`
	EPkts     int             `json:"ePkts,omitempty"`
	Stages    []float64       `json:"stages,omitempty"`
	StageLen  int             `json:"stageLen,omitempty"`
	MaxActive int             `json:"maxActive,omitempty"`
	Label     string          `json:"label,omitempty"`
	Seq       packet.Sequence `json:"seq,omitempty"`
	Values    *valueSpec      `json:"values,omitempty"`
}

// valueSpec is the flattened wire form of a packet.ValueDist.
type valueSpec struct {
	Type   string  `json:"type"`
	Alpha  int64   `json:"alpha,omitempty"`
	PHigh  float64 `json:"pHigh,omitempty"`
	Hi     int64   `json:"hi,omitempty"`
	P      float64 `json:"p,omitempty"`
	S      float64 `json:"s,omitempty"`
	LowHi  int64   `json:"lowHi,omitempty"`
	HighLo int64   `json:"highLo,omitempty"`
	HighHi int64   `json:"highHi,omitempty"`
}

// encodeGen names a generator on the wire; generators outside the packet
// package's catalog are rejected (the process boundary cannot carry
// arbitrary code).
func encodeGen(g packet.Generator) (genSpec, error) {
	switch g := g.(type) {
	case packet.Bernoulli:
		return genSpec{Type: "bernoulli", Load: g.Load, Values: encodeValues(g.Values)}, nil
	case packet.Hotspot:
		return genSpec{Type: "hotspot", Load: g.Load, HotOut: g.HotOut, HotFrac: g.HotFrac,
			Values: encodeValues(g.Values)}, nil
	case packet.Diagonal:
		return genSpec{Type: "diagonal", Load: g.Load, OffFrac: g.OffFrac,
			Values: encodeValues(g.Values)}, nil
	case packet.Bursty:
		return genSpec{Type: "bursty", OnLoad: g.OnLoad, POnOff: g.POnOff, POffOn: g.POffOn,
			Uniform: g.Uniform, Values: encodeValues(g.Values)}, nil
	case packet.Permutation:
		return genSpec{Type: "permutation", Load: g.Load, Values: encodeValues(g.Values)}, nil
	case packet.PoissonBurst:
		return genSpec{Type: "poissonburst", OffMean: g.OffMean, BurstMean: g.BurstMean,
			Values: encodeValues(g.Values)}, nil
	case packet.Diurnal:
		return genSpec{Type: "diurnal", Load: g.Load, Period: g.Period, Amplitude: g.Amplitude,
			Values: encodeValues(g.Values)}, nil
	case packet.HeavyTail:
		return genSpec{Type: "heavytail", Alpha: g.Alpha, MinGap: g.MinGap,
			Values: encodeValues(g.Values)}, nil
	case packet.BurstyBlocking:
		return genSpec{Type: "burstyblocking", OffMean: g.OffMean, Burst: g.Burst, Fanin: g.Fanin,
			Values: encodeValues(g.Values)}, nil
	case packet.CrossDrain:
		return genSpec{Type: "crossdrain", OffMean: g.OffMean, Sweep: g.Sweep, Depth: g.Depth,
			Values: encodeValues(g.Values)}, nil
	case packet.FlowMix:
		return genSpec{Type: "flowmix", FlowRate: g.FlowRate, EFrac: g.ElephantFrac,
			RatPkts: g.RatPackets, EPkts: g.ElephantPackets, Stages: g.Stages,
			StageLen: g.StageSlots, MaxActive: g.MaxActive, Values: encodeValues(g.Values)}, nil
	case packet.Fixed:
		return genSpec{Type: "fixed", Label: g.Label, Seq: g.Seq}, nil
	default:
		if g == nil {
			return genSpec{}, fmt.Errorf("shard: nil generator")
		}
		return genSpec{}, fmt.Errorf("shard: generator %T cannot cross a process boundary", g)
	}
}

// decodeGen rebuilds the generator a genSpec names. An empty list decodes
// as nil, as its canonical (omitted) encoding does, so a spec and its
// canonical encoding name the same generator.
func decodeGen(gs genSpec) (packet.Generator, error) {
	vd, err := decodeValues(gs.Values)
	if err != nil {
		return nil, err
	}
	switch gs.Type {
	case "bernoulli":
		return packet.Bernoulli{Load: gs.Load, Values: vd}, nil
	case "hotspot":
		return packet.Hotspot{Load: gs.Load, HotOut: gs.HotOut, HotFrac: gs.HotFrac, Values: vd}, nil
	case "diagonal":
		return packet.Diagonal{Load: gs.Load, OffFrac: gs.OffFrac, Values: vd}, nil
	case "bursty":
		return packet.Bursty{OnLoad: gs.OnLoad, POnOff: gs.POnOff, POffOn: gs.POffOn,
			Uniform: gs.Uniform, Values: vd}, nil
	case "permutation":
		return packet.Permutation{Load: gs.Load, Values: vd}, nil
	case "poissonburst":
		return packet.PoissonBurst{OffMean: gs.OffMean, BurstMean: gs.BurstMean, Values: vd}, nil
	case "diurnal":
		return packet.Diurnal{Load: gs.Load, Period: gs.Period, Amplitude: gs.Amplitude, Values: vd}, nil
	case "heavytail":
		return packet.HeavyTail{Alpha: gs.Alpha, MinGap: gs.MinGap, Values: vd}, nil
	case "burstyblocking":
		return packet.BurstyBlocking{OffMean: gs.OffMean, Burst: gs.Burst, Fanin: gs.Fanin, Values: vd}, nil
	case "crossdrain":
		return packet.CrossDrain{OffMean: gs.OffMean, Sweep: gs.Sweep, Depth: gs.Depth, Values: vd}, nil
	case "flowmix":
		return packet.FlowMix{FlowRate: gs.FlowRate, ElephantFrac: gs.EFrac,
			RatPackets: gs.RatPkts, ElephantPackets: gs.EPkts, Stages: orNil(gs.Stages),
			StageSlots: gs.StageLen, MaxActive: gs.MaxActive, Values: vd}, nil
	case "fixed":
		return packet.Fixed{Label: gs.Label, Seq: orNil(gs.Seq)}, nil
	default:
		return nil, fmt.Errorf("shard: unknown generator spec %q", gs.Type)
	}
}

// orNil returns s, or nil when s is empty.
func orNil[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

// encodeValues names a value distribution; nil stays nil (the generators
// default nil to unit values themselves).
func encodeValues(v packet.ValueDist) *valueSpec {
	switch v := v.(type) {
	case nil:
		return nil
	case packet.UnitValues:
		return &valueSpec{Type: "unit"}
	case packet.TwoValued:
		return &valueSpec{Type: "two", Alpha: v.Alpha, PHigh: v.PHigh}
	case packet.UniformValues:
		return &valueSpec{Type: "uniform", Hi: v.Hi}
	case packet.ZipfValues:
		return &valueSpec{Type: "zipf", Hi: v.Hi, S: v.S}
	case packet.GeometricValues:
		return &valueSpec{Type: "geometric", P: v.P, Hi: v.Hi}
	case packet.BimodalValues:
		return &valueSpec{Type: "bimodal", LowHi: v.LowHi, HighLo: v.HighLo,
			HighHi: v.HighHi, PHigh: v.PHigh}
	default:
		// Unknown distributions are caught at decode; name the type so the
		// error is actionable.
		return &valueSpec{Type: fmt.Sprintf("!%T", v)}
	}
}

// decodeValues rebuilds the value distribution a valueSpec names.
func decodeValues(vs *valueSpec) (packet.ValueDist, error) {
	if vs == nil {
		return nil, nil
	}
	switch vs.Type {
	case "unit":
		return packet.UnitValues{}, nil
	case "two":
		return packet.TwoValued{Alpha: vs.Alpha, PHigh: vs.PHigh}, nil
	case "uniform":
		return packet.UniformValues{Hi: vs.Hi}, nil
	case "zipf":
		return packet.ZipfValues{Hi: vs.Hi, S: vs.S}, nil
	case "geometric":
		return packet.GeometricValues{P: vs.P, Hi: vs.Hi}, nil
	case "bimodal":
		return packet.BimodalValues{LowHi: vs.LowHi, HighLo: vs.HighLo,
			HighHi: vs.HighHi, PHigh: vs.PHigh}, nil
	default:
		return nil, fmt.Errorf("shard: unknown value distribution spec %q", vs.Type)
	}
}

// marshalMsg encodes a wire message, panicking on the impossible (all
// message types marshal cleanly).
func marshalMsg(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("shard: marshal %T: %v", v, err))
	}
	return b
}
