package core

import (
	"slices"
	"testing"

	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// pathCount tallies which path served each call and how often a run moved
// from one path to the other.
type pathCount struct {
	indexed, scanned, switches int
	last                       bool
}

func (c *pathCount) note(ready bool) {
	if c.indexed+c.scanned > 0 && ready != c.last {
		c.switches++
	}
	c.last = ready
	if ready {
		c.indexed++
	} else {
		c.scanned++
	}
}

// pgBothPaths is PG that, whenever the head-value index is ready, also
// builds the cycle's matching edge by edge and fails unless the two
// transfer lists are equal, in order.
type pgBothPaths struct {
	PG
	t     *testing.T
	edges PG
	n     pathCount
}

func (p *pgBothPaths) Reset(cfg switchsim.Config) {
	p.PG.Reset(cfg)
	p.edges.Beta = p.Beta
	p.edges.Reset(cfg)
}

func (p *pgBothPaths) Schedule(sw *switchsim.CIOQ, slot, cycle int) []switchsim.Transfer {
	p.n.note(sw.IQIndex.Ready())
	if !sw.IQIndex.Ready() {
		return p.PG.Schedule(sw, slot, cycle)
	}
	got, want := p.scheduleIndexed(sw), p.edges.scheduleEdges(sw)
	if !slices.Equal(got, want) {
		p.t.Fatalf("slot %d cycle %d: indexed matching %v, edge matching %v", slot, cycle, got, want)
	}
	return got
}

// indexWorkloads are the reference suite's cells plus its boundary cells,
// three seeds each.
func indexWorkloads(t *testing.T, run func(name string, cfg switchsim.Config, seq packet.Sequence)) {
	for _, rc := range equivalenceConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			run(rc.name, rc.cfg, equivalenceSeq(t, rc.cfg, seed))
		}
	}
	for _, bc := range boundaryCells() {
		for seed := int64(1); seed <= 3; seed++ {
			run(bc.name, bc.cfg, bc.seq(seed))
		}
	}
}

// TestIndexedPathsMatchScans checks PG's indexed matching against its edge
// matching on every cycle the index serves. The value mix straddling 2048
// must move each run between the two paths and back.
func TestIndexedPathsMatchScans(t *testing.T) {
	counts := map[string]*pathCount{}
	tally := func(key string, c pathCount) {
		if counts[key] == nil {
			counts[key] = &pathCount{}
		}
		k := counts[key]
		k.indexed += c.indexed
		k.scanned += c.scanned
		k.switches += c.switches
	}
	indexWorkloads(t, func(name string, cfg switchsim.Config, seq packet.Sequence) {
		for _, beta := range []float64{0, 1.5} {
			pg := &pgBothPaths{PG: PG{Beta: beta}, t: t}
			want := mustRunCIOQ(t, cfg, &PG{Beta: beta}, seq)
			if got := mustRunCIOQ(t, cfg, pg, seq); got.M.Benefit != want.M.Benefit {
				t.Errorf("pg/%s: benefit %d, want %d", name, got.M.Benefit, want.M.Benefit)
			}
			tally("pg/"+name, pg.n)
		}
	})
	for _, key := range []string{"pg/square", "pg/64x64"} {
		if c := counts[key]; c.indexed == 0 || c.scanned != 0 {
			t.Errorf("%s: %d indexed and %d scanned calls, want only indexed", key, c.indexed, c.scanned)
		}
	}
	if c := counts["pg/wide"]; c.indexed != 0 {
		t.Errorf("pg/wide: %d indexed calls on a 66-port switch", c.indexed)
	}
	if c := counts["pg/above2048"]; c.indexed == 0 || c.scanned == 0 || c.switches < 2 {
		t.Errorf("pg/above2048: %d indexed, %d scanned calls, %d path switches; want both paths and a switch there and back",
			c.indexed, c.scanned, c.switches)
	}
}
