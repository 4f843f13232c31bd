package qswitch

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qswitch/internal/core"
	"qswitch/internal/packet"
	"qswitch/internal/ratio"
	"qswitch/internal/shard"
)

// policySpellings is every policy spelling the facade or the shard wire
// has accepted, with the policy value it names. The facade's names come
// first, then the wire's own spellings and parameterized forms.
var policySpellings = []struct {
	spec     string
	crossbar bool
	want     any
}{
	{spec: "gm", want: &core.GM{}},
	{spec: "gm-rotating", want: &core.GM{Order: core.Rotating}},
	{spec: "gm-colmajor", want: &core.GM{Order: core.ColMajor}},
	{spec: "gm-longest", want: &core.GM{Order: core.LongestFirst}},
	{spec: "gm-random", want: &core.RandomizedGM{}},
	{spec: "kr-maxmatch", want: &core.KRMM{}},
	{spec: "pg", want: &core.PG{}},
	{spec: "kr-maxweight", want: &core.KRMWM{}},
	{spec: "ar-fifo", want: &core.ARFIFO{}},
	{spec: "naive-fifo", want: &core.NaiveFIFO{}},
	{spec: "roundrobin", want: &core.RoundRobin{}},
	{spec: "cgu", crossbar: true, want: &core.CGU{}},
	{spec: "cgu-rotating", crossbar: true, want: &core.CGU{RotatePick: true}},
	{spec: "cpg", crossbar: true, want: &core.CPG{}},
	{spec: "cpg-equal", crossbar: true, want: core.CPGEqualParams()},
	{spec: "crossbar-naive", crossbar: true, want: &core.CrossbarNaive{}},
	{spec: "kks-fifo", crossbar: true, want: &core.KKSFIFO{}},

	{spec: "gm-longestfirst", want: &core.GM{Order: core.LongestFirst}},
	{spec: "krmwm", want: &core.KRMWM{}},
	{spec: "naivefifo", want: &core.NaiveFIFO{}},
	{spec: "kksfifo", crossbar: true, want: &core.KKSFIFO{}},
	{spec: "pg(beta=2.41)", want: &core.PG{Beta: 2.41}},
	{spec: "pg(beta=1.5)", want: &core.PG{Beta: 1.5}},
	{spec: "pg( beta = 2 )", want: &core.PG{Beta: 2}},
	{spec: "krmwm(beta=3)", want: &core.KRMWM{Beta: 3}},
	{spec: "kr-maxweight(beta=3)", want: &core.KRMWM{Beta: 3}},
	{spec: "cpg(beta=13.8,alpha=15.9)", crossbar: true, want: &core.CPG{Beta: 13.8, Alpha: 15.9}},
	{spec: "cpg(beta=13.8, alpha=15.9)", crossbar: true, want: &core.CPG{Beta: 13.8, Alpha: 15.9}},
	{spec: "cpg(alpha=3)", crossbar: true, want: &core.CPG{Alpha: 3}},
}

// policyOutcomes runs a policy value over a few weighted workloads on a
// tight switch, where the policy families and their variants part ways,
// and returns the per-workload benefit.
func policyOutcomes(t *testing.T, alg ratio.Alg) []int64 {
	t.Helper()
	cfg := Config{Inputs: 3, Outputs: 3, InputBuf: 2, OutputBuf: 1, CrossBuf: 1, Speedup: 2}
	var out []int64
	for seed := int64(1); seed <= 6; seed++ {
		seq := packet.Hotspot{Load: 1.6, HotFrac: 0.6, Values: packet.UniformValues{Hi: 40}}.
			Generate(rand.New(rand.NewSource(seed)), cfg.Inputs, cfg.Outputs, 12)
		b, err := alg(cfg, seq)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestPolicySpellingsResolveAlike: the facade and the shard wire accept
// every spelling either has accepted, and both resolve it to the same
// policy — the facade to an equal value, the wire to engines whose
// benefits equal that value's on every workload.
func TestPolicySpellingsResolveAlike(t *testing.T) {
	for _, c := range policySpellings {
		var got any
		var err error
		if c.crossbar {
			got, err = NewCrossbarPolicy(c.spec)
		} else {
			got, err = NewCIOQPolicy(c.spec)
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("facade %q = %#v, %v; want %#v", c.spec, got, err, c.want)
		}
		// Running c.want resets it, so it runs only after the comparison.
		var want []int64
		if c.crossbar {
			want = policyOutcomes(t, ratio.CrossbarAlg(func() CrossbarPolicy { return c.want.(CrossbarPolicy) }))
		} else {
			want = policyOutcomes(t, ratio.CIOQAlg(func() CIOQPolicy { return c.want.(CIOQPolicy) }))
		}
		alg, fleet, err := shard.ResolvePolicy(c.spec, c.crossbar)
		if err != nil {
			t.Errorf("shard %q: %v", c.spec, err)
			continue
		}
		if got := policyOutcomes(t, alg); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %q: benefits %v, want %v", c.spec, got, want)
		}
		batch := fleet()
		if got := policyOutcomes(t, func(cfg Config, seq Sequence) (int64, error) {
			b, err := batch(cfg, []Sequence{seq})
			if err != nil {
				return 0, err
			}
			return b[0], nil
		}); !reflect.DeepEqual(got, want) {
			t.Errorf("shard fleet %q: benefits %v, want %v", c.spec, got, want)
		}
		// A spelling names one model only.
		if _, _, err := shard.ResolvePolicy(c.spec, !c.crossbar); err == nil {
			t.Errorf("shard %q resolved in the other model", c.spec)
		}
	}
}

// TestPolicyNameLists pins the facade's two name lists.
func TestPolicyNameLists(t *testing.T) {
	cioq := []string{"ar-fifo", "gm", "gm-colmajor", "gm-longest", "gm-random", "gm-rotating",
		"kr-maxmatch", "kr-maxweight", "naive-fifo", "pg", "roundrobin"}
	if got := CIOQPolicyNames(); !reflect.DeepEqual(got, cioq) {
		t.Errorf("CIOQPolicyNames() = %v, want %v", got, cioq)
	}
	crossbar := []string{"cgu", "cgu-rotating", "cpg", "cpg-equal", "crossbar-naive", "kks-fifo"}
	if got := CrossbarPolicyNames(); !reflect.DeepEqual(got, crossbar) {
		t.Errorf("CrossbarPolicyNames() = %v, want %v", got, crossbar)
	}
}

// TestPolicySpecsRejected: unknown names, unknown, repeated or stray
// keys, non-finite values and malformed lists fail in both callers, with
// the error text the callers' tests have always matched.
func TestPolicySpecsRejected(t *testing.T) {
	for _, c := range []struct {
		spec     string
		crossbar bool
		substr   string
	}{
		{spec: "bogus", substr: "unknown"},
		{spec: "bogus", crossbar: true, substr: "unknown"},
		{spec: "no-such-policy", substr: "unknown"},
		{spec: "pg(betta=2.41)", substr: "unknown parameters"},
		{spec: "gm(beta=2)", substr: "unknown parameters"},
		{spec: "cpg(beta=2,gamma=1)", crossbar: true, substr: "unknown parameters"},
		{spec: "pg(beta=1,beta=2)", substr: "repeated"},
		{spec: "cpg(alpha=3,alpha=3)", crossbar: true, substr: "repeated"},
		{spec: "pg(beta=NaN)", substr: "finite"},
		{spec: "pg(beta=Inf)", substr: "finite"},
		{spec: "kr-maxweight(beta=-Inf)", substr: "finite"},
		{spec: "cpg(beta=nan,alpha=2)", crossbar: true, substr: "finite"},
		{spec: "pg(beta=1e999)", substr: "bad value"},
		{spec: "pg(beta=abc)", substr: "bad value"},
		{spec: "pg(beta)", substr: "bad parameter"},
		{spec: "pg(beta=2.41", substr: "unterminated"},
		{spec: "", substr: "empty"},
		{spec: "pg", crossbar: true, substr: "unknown"},
		{spec: "cgu", substr: "unknown"},
	} {
		var err error
		if c.crossbar {
			_, err = NewCrossbarPolicy(c.spec)
		} else {
			_, err = NewCIOQPolicy(c.spec)
		}
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("facade %q (crossbar=%v): err = %v, want one containing %q", c.spec, c.crossbar, err, c.substr)
		}
		if _, _, err := shard.ResolvePolicy(c.spec, c.crossbar); err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("shard %q (crossbar=%v): err = %v, want one containing %q", c.spec, c.crossbar, err, c.substr)
		}
	}
}
