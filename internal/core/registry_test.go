package core

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec   string
		name   string
		params map[string]float64
		bad    bool
	}{
		{spec: "gm", name: "gm"},
		{spec: " gm ", name: "gm"},
		{spec: "pg(beta=2.41)", name: "pg", params: map[string]float64{"beta": 2.41}},
		{spec: "cpg(beta=13.8, alpha=15.9)", name: "cpg", params: map[string]float64{"beta": 13.8, "alpha": 15.9}},
		{spec: "pg( beta=2)", name: "pg", params: map[string]float64{"beta": 2}},
		{spec: "pg(beta= 2 )", name: "pg", params: map[string]float64{"beta": 2}},
		{spec: "", bad: true},
		{spec: "pg(beta=2.41", bad: true},
		{spec: "pg(beta)", bad: true},
		{spec: "pg(beta=abc)", bad: true},
		{spec: "pg(beta=1,beta=2)", bad: true},
		{spec: "pg(beta=NaN)", bad: true},
		{spec: "pg(beta=-Inf)", bad: true},
		{spec: "pg(beta=1e999)", bad: true},
	}
	for _, tc := range cases {
		name, params, err := ParseSpec(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseSpec(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if name != tc.name {
			t.Errorf("ParseSpec(%q) name = %q, want %q", tc.spec, name, tc.name)
		}
		if len(params) != len(tc.params) {
			t.Errorf("ParseSpec(%q) params = %v, want %v", tc.spec, params, tc.params)
			continue
		}
		for k, v := range tc.params {
			if params[k] != v {
				t.Errorf("ParseSpec(%q) params[%q] = %v, want %v", tc.spec, k, params[k], v)
			}
		}
	}
}

// TestPolicyTableNames: canonical names and aliases are unique within a
// model, so a spelling names one row.
func TestPolicyTableNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range policyTable {
		for _, n := range append([]string{e.name}, e.aliases...) {
			key := strconv.FormatBool(e.crossbar != nil) + "/" + n
			if seen[key] {
				t.Errorf("spelling %q appears twice in its model", n)
			}
			seen[key] = true
		}
		if (e.cioq == nil) == (e.crossbar == nil) {
			t.Errorf("%s: exactly one of cioq and crossbar must be set", e.name)
		}
	}
}

// FuzzPolicySpec: arbitrary bytes never panic the grammar or the table;
// an accepted spec, written back out under its canonical name with every
// parameter formatted 'g'/-1, resolves to the same row, the same values
// and an equal policy.
func FuzzPolicySpec(f *testing.F) {
	for _, spec := range []string{
		"gm", "gm-colmajor", "gm-rotating", "gm-longestfirst", "gm-longest", "gm-random",
		"kr-maxmatch", "pg(beta=2.41)", "krmwm(beta=3)", "kr-maxweight", "ar-fifo", "roundrobin",
		"naivefifo", "naive-fifo", "failpolicy(fp=7)",
		"cgu", "cgu-rotating", "cpg(beta=13.8,alpha=15.9)", "cpg-equal", "kksfifo", "kks-fifo",
		"crossbar-naive", "exactunit", "exactweighted", "upperbound", "failjudge(fp=9)",
		"pg( beta = 2 )", "pg(beta=1,beta=2)", "pg(beta=NaN)", "cpg(alpha=0x1p-3)", "pg(", ")(", "",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, crossbar := range []bool{false, true} {
			e, vals, err := lookupPolicy(spec, crossbar)
			if err != nil {
				continue
			}
			kv := make([]string, len(e.params))
			for i, k := range e.params {
				if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
					t.Fatalf("%q: accepted non-finite %s = %v", spec, k, vals[i])
				}
				kv[i] = k + "=" + strconv.FormatFloat(vals[i], 'g', -1, 64)
			}
			again := e.name
			if len(kv) > 0 {
				again += "(" + strings.Join(kv, ",") + ")"
			}
			e2, vals2, err := lookupPolicy(again, crossbar)
			if err != nil || e2 != e || !reflect.DeepEqual(vals2, vals) {
				t.Fatalf("%q re-formatted as %q: row %v values %v err %v; want row %q values %v",
					spec, again, e2, vals2, err, e.name, vals)
			}
			if crossbar {
				f1, _ := CrossbarFactory(spec)
				f2, _ := CrossbarFactory(again)
				if a, b := f1(), f2(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%q and %q build %#v and %#v", spec, again, a, b)
				}
			} else {
				f1, _ := CIOQFactory(spec)
				f2, _ := CIOQFactory(again)
				if a, b := f1(), f2(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%q and %q build %#v and %#v", spec, again, a, b)
				}
			}
		}
	})
}
