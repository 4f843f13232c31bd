// Package faultinject supplies the deterministic chaos schedule behind
// qswitchd's -chaos flag: given a seed and per-fault probabilities, it
// decides — reproducibly, per chunk request — whether the worker should
// crash, hang, delay its reply or bit-corrupt its response frame. The
// schedule is a pure function of (seed, request index), so a chaotic run
// can be replayed exactly, and because coordinator retries re-execute
// deterministic chunks, chaos perturbs only the execution schedule, never
// the merged results. The injector is exercised in ordinary `go test`
// runs (see internal/shard's chaos tests) as well as from the CLI.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"qswitch/internal/rng"
)

// Action is the fault chosen for one request.
type Action int

const (
	// None leaves the request undisturbed.
	None Action = iota
	// Kill exits the worker process before replying.
	Kill
	// Hang suppresses heartbeats and stalls until the supervisor gives up.
	Hang
	// Delay sleeps before executing (heartbeats keep flowing).
	Delay
	// Corrupt flips one bit in the response frame after its checksum is
	// computed, so the receiver's CRC check must catch it.
	Corrupt
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Kill:
		return "kill"
	case Hang:
		return "hang"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Plan is one request's fault decision.
type Plan struct {
	Action Action
	// Delay is how long to stall (Delay action only).
	Delay time.Duration
	// CorruptBit selects which response bit to flip (Corrupt action only);
	// the worker reduces it modulo the frame length.
	CorruptBit int
}

// Injector draws fault plans from a seeded schedule. The n-th Next call
// returns the same plan for the same (seed, probabilities, n), regardless
// of timing, so chaotic runs replay exactly. Next is safe for concurrent
// use.
type Injector struct {
	seed     int64
	pKill    float64
	pHang    float64
	pDelay   float64
	pCorrupt float64
	maxDelay time.Duration

	mu sync.Mutex
	n  int64
}

// New builds an injector with the given per-request fault probabilities
// (each in [0, 1]; they are tried in kill, hang, delay, corrupt order
// against a single uniform draw, so their sum should stay <= 1).
func New(seed int64, pKill, pHang, pDelay, pCorrupt float64) *Injector {
	return &Injector{
		seed: seed, pKill: pKill, pHang: pHang, pDelay: pDelay, pCorrupt: pCorrupt,
		maxDelay: 50 * time.Millisecond,
	}
}

// ParseSpec parses the -chaos flag grammar: comma-separated k=v pairs with
// keys seed (int), kill, hang, delay, corrupt (probabilities in [0,1]) and
// maxdelayms (the delay fault's cap, in milliseconds). Example:
//
//	seed=7,kill=0.05,hang=0.02,delay=0.2,corrupt=0.1,maxdelayms=20
//
// An empty spec yields a nil injector (chaos off).
func ParseSpec(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	in := New(1, 0, 0, 0, 0)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: bad spec term %q (want k=v)", kv)
		}
		switch k {
		case "seed":
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			in.seed = s
		case "maxdelayms":
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("faultinject: bad maxdelayms %q", v)
			}
			in.maxDelay = time.Duration(ms) * time.Millisecond
		case "kill", "hang", "delay", "corrupt":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: bad probability %s=%q", k, v)
			}
			switch k {
			case "kill":
				in.pKill = p
			case "hang":
				in.pHang = p
			case "delay":
				in.pDelay = p
			case "corrupt":
				in.pCorrupt = p
			}
		default:
			return nil, fmt.Errorf("faultinject: unknown spec key %q", k)
		}
	}
	return in, nil
}

// Next draws the plan for the next request. A nil injector always returns
// the no-fault plan, so callers need not guard the chaos-off case.
func (in *Injector) Next() Plan {
	if in == nil {
		return Plan{}
	}
	in.mu.Lock()
	n := in.n
	in.n++
	in.mu.Unlock()
	return in.planAt(n)
}

// planAt computes request n's plan; it is the pure function Next exposes
// statefully.
func (in *Injector) planAt(n int64) Plan {
	// Mix the request index into the seed (splitmix-style odd constant) so
	// consecutive requests draw decorrelated streams.
	mix := int64(uint64(n+1) * 0x9e3779b97f4a7c15)
	r := rng.New(in.seed ^ mix)
	u := r.Float64()
	switch {
	case u < in.pKill:
		return Plan{Action: Kill}
	case u < in.pKill+in.pHang:
		return Plan{Action: Hang}
	case u < in.pKill+in.pHang+in.pDelay:
		d := time.Duration(r.Int63n(int64(in.maxDelay) + 1))
		return Plan{Action: Delay, Delay: d}
	case u < in.pKill+in.pHang+in.pDelay+in.pCorrupt:
		return Plan{Action: Corrupt, CorruptBit: r.Intn(1 << 30)}
	default:
		return Plan{}
	}
}
