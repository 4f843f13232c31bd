package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"qswitch/internal/switchsim"
)

// The policy table names every policy of this package once. A spec is a
// name, or a name with parameters: "pg", "pg(beta=2.41)",
// "cpg(beta=13.8,alpha=15.9)". Keys are lowercase; values are finite
// floats, written by callers with strconv 'g'/-1 so that they round-trip
// exactly. An absent parameter reads 0, which selects the policy's
// default. The facade, the shard wire and the experiments all resolve
// specs here, so one spelling names the same policy everywhere.

// policyEntry is one row of the policy table. Exactly one of cioq and
// crossbar is set; it names the model and builds the policy from the
// parameter values, given in params order.
type policyEntry struct {
	name     string   // canonical spelling
	aliases  []string // older spellings of the shard wire
	params   []string // accepted parameter keys
	cioq     func(p []float64) switchsim.CIOQPolicy
	crossbar func(p []float64) switchsim.CrossbarPolicy
}

var policyTable = []policyEntry{
	// Greedy Matching (paper; unit values, 3-competitive) and its scan orders.
	{name: "gm", cioq: func([]float64) switchsim.CIOQPolicy { return &GM{} }},
	{name: "gm-rotating", cioq: func([]float64) switchsim.CIOQPolicy { return &GM{Order: Rotating} }},
	{name: "gm-colmajor", cioq: func([]float64) switchsim.CIOQPolicy { return &GM{Order: ColMajor} }},
	{name: "gm-longest", aliases: []string{"gm-longestfirst"},
		cioq: func([]float64) switchsim.CIOQPolicy { return &GM{Order: LongestFirst} }},
	// GM with a random scan per cycle (open-problem probe).
	{name: "gm-random", cioq: func([]float64) switchsim.CIOQPolicy { return &RandomizedGM{} }},
	// Maximum-matching baseline (Hopcroft–Karp per cycle; prior work).
	{name: "kr-maxmatch", cioq: func([]float64) switchsim.CIOQPolicy { return &KRMM{} }},
	// Preemptive Greedy (paper; weighted, 3+2√2-competitive at β = 1+√2).
	{name: "pg", params: []string{"beta"},
		cioq: func(p []float64) switchsim.CIOQPolicy { return &PG{Beta: p[0]} }},
	// Maximum-weight-matching baseline (Hungarian per cycle; β = 2).
	{name: "kr-maxweight", aliases: []string{"krmwm"}, params: []string{"beta"},
		cioq: func(p []float64) switchsim.CIOQPolicy { return &KRMWM{Beta: p[0]} }},
	// FIFO-queue baseline in the Azar–Richter line of related work.
	{name: "ar-fifo", cioq: func([]float64) switchsim.CIOQPolicy { return &ARFIFO{} }},
	// Non-preemptive value-blind first-fit baseline.
	{name: "naive-fifo", aliases: []string{"naivefifo"},
		cioq: func([]float64) switchsim.CIOQPolicy { return &NaiveFIFO{} }},
	// iSLIP-style round-robin matching.
	{name: "roundrobin", cioq: func([]float64) switchsim.CIOQPolicy { return &RoundRobin{} }},

	// Crossbar Greedy Unit (paper; 3-competitive), plain and with rotating picks.
	{name: "cgu", crossbar: func([]float64) switchsim.CrossbarPolicy { return &CGU{} }},
	{name: "cgu-rotating", crossbar: func([]float64) switchsim.CrossbarPolicy { return &CGU{RotatePick: true} }},
	// Crossbar Preemptive Greedy (paper; weighted, ~14.83-competitive).
	{name: "cpg", params: []string{"beta", "alpha"},
		crossbar: func(p []float64) switchsim.CrossbarPolicy { return &CPG{Beta: p[0], Alpha: p[1]} }},
	// CPG at β = α (Kesselman et al.'s parameterization).
	{name: "cpg-equal", crossbar: func([]float64) switchsim.CrossbarPolicy { return CPGEqualParams() }},
	// Non-preemptive first-fit crossbar baseline.
	{name: "crossbar-naive", crossbar: func([]float64) switchsim.CrossbarPolicy { return &CrossbarNaive{} }},
	// FIFO-queue crossbar baseline in the Kesselman–Kogan–Segal line.
	{name: "kks-fifo", aliases: []string{"kksfifo"},
		crossbar: func([]float64) switchsim.CrossbarPolicy { return &KKSFIFO{} }},
}

// ParseSpec splits a spec into its name and parameters. Whitespace
// around the name, keys and values is ignored; a malformed list, a
// repeated key or a value that is not a finite float is an error.
func ParseSpec(spec string) (string, map[string]float64, error) {
	name, rest, found := strings.Cut(strings.TrimSpace(spec), "(")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("core: empty spec %q", spec)
	}
	if !found {
		return name, nil, nil
	}
	body, ok := strings.CutSuffix(rest, ")")
	if !ok {
		return "", nil, fmt.Errorf("core: unterminated parameter list in spec %q", spec)
	}
	params := map[string]float64{}
	for _, kv := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, fmt.Errorf("core: bad parameter %q in spec %q (want key=value)", kv, spec)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return "", nil, fmt.Errorf("core: bad value for %q in spec %q: %v", k, spec, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "", nil, fmt.Errorf("core: value of %q in spec %q is not finite", k, spec)
		}
		if _, dup := params[k]; dup {
			return "", nil, fmt.Errorf("core: repeated parameter %q in spec %q", k, spec)
		}
		params[k] = f
	}
	return name, params, nil
}

// lookupPolicy resolves spec to its table entry in the given model and
// the entry's parameter values.
func lookupPolicy(spec string, crossbar bool) (*policyEntry, []float64, error) {
	name, params, err := ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	var e *policyEntry
	for i := range policyTable {
		c := &policyTable[i]
		if (c.crossbar != nil) == crossbar && (c.name == name || slices.Contains(c.aliases, name)) {
			e = c
			break
		}
	}
	if e == nil {
		model := "CIOQ"
		if crossbar {
			model = "crossbar"
		}
		return nil, nil, fmt.Errorf("core: unknown %s policy %q (have %v)", model, spec, PolicyNames(crossbar))
	}
	vals, err := SpecValues(spec, params, e.params...)
	if err != nil {
		return nil, nil, err
	}
	return e, vals, nil
}

// SpecValues takes the values of keys from the parameters ParseSpec
// returned for spec, 0 for an absent key, and rejects any other key, so
// a typo fails loudly instead of running the default. It consumes params.
func SpecValues(spec string, params map[string]float64, keys ...string) ([]float64, error) {
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = params[k]
		delete(params, k)
	}
	if len(params) > 0 {
		return nil, fmt.Errorf("core: unknown parameters %v in spec %q", slices.Sorted(maps.Keys(params)), spec)
	}
	return vals, nil
}

// CIOQFactory resolves a CIOQ policy spec to a constructor of fresh
// policy instances.
func CIOQFactory(spec string) (func() switchsim.CIOQPolicy, error) {
	e, p, err := lookupPolicy(spec, false)
	if err != nil {
		return nil, err
	}
	return func() switchsim.CIOQPolicy { return e.cioq(p) }, nil
}

// CrossbarFactory resolves a buffered-crossbar policy spec to a
// constructor of fresh policy instances.
func CrossbarFactory(spec string) (func() switchsim.CrossbarPolicy, error) {
	e, p, err := lookupPolicy(spec, true)
	if err != nil {
		return nil, err
	}
	return func() switchsim.CrossbarPolicy { return e.crossbar(p) }, nil
}

// PolicyNames lists the canonical names of one model's policies, sorted.
func PolicyNames(crossbar bool) []string {
	var names []string
	for _, e := range policyTable {
		if (e.crossbar != nil) == crossbar {
			names = append(names, e.name)
		}
	}
	slices.Sort(names)
	return names
}
