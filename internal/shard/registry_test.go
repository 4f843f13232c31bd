package shard

import (
	"strings"
	"testing"

	"qswitch/internal/packet"
)

// TestResolveAllKnownSpecs: every spec string the experiments and CLI use
// must resolve in its model.
func TestResolveAllKnownSpecs(t *testing.T) {
	cioq := []string{"gm", "gm-colmajor", "gm-rotating", "gm-longestfirst", "gm-longest", "gm-random",
		"kr-maxmatch", "pg(beta=2.41)", "krmwm(beta=3)", "kr-maxweight", "ar-fifo", "roundrobin",
		"naivefifo", "naive-fifo", "failpolicy(fp=7)"}
	for _, spec := range cioq {
		if _, _, err := ResolvePolicy(spec, false); err != nil {
			t.Errorf("ResolvePolicy(%q, cioq): %v", spec, err)
		}
	}
	crossbar := []string{"cgu", "cgu-rotating", "cpg(beta=13.8,alpha=15.9)", "cpg-equal",
		"kksfifo", "kks-fifo", "crossbar-naive", "failpolicy(fp=7)"}
	for _, spec := range crossbar {
		if _, _, err := ResolvePolicy(spec, true); err != nil {
			t.Errorf("ResolvePolicy(%q, crossbar): %v", spec, err)
		}
	}
	for _, spec := range []string{"exactunit", "exactweighted", "upperbound", "failjudge(fp=9)"} {
		for _, crossbar := range []bool{false, true} {
			if _, err := ResolveJudge(spec, crossbar); err != nil {
				t.Errorf("ResolveJudge(%q, crossbar=%v): %v", spec, crossbar, err)
			}
		}
	}
}

func TestResolveRejectsUnknownAndTypos(t *testing.T) {
	if _, _, err := ResolvePolicy("no-such-policy", false); err == nil {
		t.Error("unknown CIOQ policy resolved")
	}
	if _, _, err := ResolvePolicy("no-such-policy", true); err == nil {
		t.Error("unknown crossbar policy resolved")
	}
	if _, err := ResolveJudge("no-such-judge", false); err == nil {
		t.Error("unknown judge resolved")
	}
	// A typo'd parameter must fail loudly, not run a default silently.
	_, _, err := ResolvePolicy("pg(betta=2.41)", false)
	if err == nil || !strings.Contains(err.Error(), "unknown parameters") {
		t.Errorf("typo'd parameter: err = %v, want unknown-parameters error", err)
	}
	if _, err := ResolveJudge("exactunit(x=1)", false); err == nil {
		t.Error("judge with stray parameter resolved")
	}
}

func TestSequenceFingerprint(t *testing.T) {
	a := packet.Sequence{{Arrival: 0, In: 0, Out: 1, Value: 2, ID: 0}, {Arrival: 1, In: 1, Out: 0, Value: 1, ID: 1}}
	b := packet.Sequence{{Arrival: 0, In: 0, Out: 1, Value: 2, ID: 0}, {Arrival: 1, In: 1, Out: 0, Value: 1, ID: 1}}
	if SequenceFingerprint(a) != SequenceFingerprint(b) {
		t.Error("identical sequences fingerprint differently")
	}
	b[1].Value = 3
	if SequenceFingerprint(a) == SequenceFingerprint(b) {
		t.Error("differing sequences fingerprint identically")
	}
	if fp := SequenceFingerprint(a); fp >= 1<<30 {
		t.Errorf("fingerprint %d does not fit the float64 parameter grammar", fp)
	}
}
