package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qswitch"
)

// setupRepeats is how often a run sets its workload up: set-up time is an
// end-to-end metric with a bound, and one sample of it would not be steady.
const setupRepeats = 3

// minPasses is the fewest timed passes a median is taken over.
const minPasses = 3

// passRecord is what the runner measured around one pass.
type passRecord struct {
	kind                 string
	wallS, cpuS, allocMB float64
	gcs                  float64
	notes                map[string]float64
	cells                []cellResult
}

// summary is one metric over its samples: the median, and beside it the
// sample count, range and quartiles.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// runRecord is the result of one run of one workload. Time is part of the
// result record, beside the configuration that produced it.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Smoke     bool               `json:"smoke,omitempty"`
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Cells is where the bare passes' wall-clock went, cell by cell.
	Cells []cellShare `json:"cells"`
	// CellLayers (traced runs) is each cell's busy share by span name.
	CellLayers map[string]map[string]float64 `json:"cell_layers,omitempty"`
}

// cellShare is one cell's median wall-clock over the bare passes, and that
// as a share of the median pass.
type cellShare struct {
	Name  string  `json:"name"`
	WallS float64 `json:"wall_s"`
	Share float64 `json:"share"`
	Slots int64   `json:"sim_slots"`
}

// cellShares breaks the bare passes down by cell.
func (m *measured) cellShares() []cellShare {
	wall := map[string][]float64{}
	var out []cellShare
	var pass []float64
	for i := range m.passes {
		if p := &m.passes[i]; p.kind == "bare" {
			pass = append(pass, p.wallS)
			for _, c := range p.cells {
				if wall[c.Name] == nil {
					out = append(out, cellShare{Name: c.Name, Slots: c.Slots})
				}
				wall[c.Name] = append(wall[c.Name], c.WallS)
			}
		}
	}
	for i := range out {
		out[i].WallS = median(wall[out[i].Name])
		out[i].Share = out[i].WallS / median(pass)
	}
	return out
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string   // scratch directory, owned by the caller
	self     []string // this binary as a shard worker
	golden   goldenSet
}

// cpuSeconds is the user+sys CPU of this process and the children it has
// reaped.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) + childCPUSeconds() }

func childCPUSeconds() float64 { return rusageSeconds(syscall.RUSAGE_CHILDREN) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runPass runs one pass of the given kind and round and measures it from
// outside. The heap is collected first, so every pass starts from the same
// state and a pass does not pay for its predecessor's garbage.
func runPass(w workload, kind string, round int, tr *tracer, counters map[string]float64) passRecord {
	p := &pass{kind: kind, round: round, notes: map[string]float64{}}
	var stopProbes func()
	var reg *qswitch.MetricsRegistry
	switch kind {
	case "traced":
		p.tr = tr
		tr.pass++
	case "probed":
		reg, stopProbes = qswitch.EnableObservability()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	p.root = p.tr.begin(nil, "pass")
	w.pass(p)
	p.root.end(int64(slotsOf(p.cells)))
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&m1)
	if stopProbes != nil {
		for name, v := range reg.Snapshot() {
			counters[name] += v
		}
		stopProbes()
	}
	return passRecord{
		kind: kind, wallS: wall, cpuS: cpu,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     float64(m1.NumGC - m0.NumGC),
		notes:   p.notes, cells: p.cells,
	}
}

// measured is a finished run before its metrics are chosen: the passes by
// kind, the set-up times, and (traced) the spans and probe counters.
type measured struct {
	w        workload
	setups   []float64
	ref      passRecord // the last set-up's warm-up pass: the reference every pass must reproduce
	passes   []passRecord
	tr       *tracer
	counters map[string]float64
}

// measure sets the workload up setupRepeats times (keeping the last), then
// runs passes for cfg.seconds: bare passes only when tracing is off;
// bare, traced, probed and the workload's own kinds in rotation when it is
// on. The caller closes m.w; on an error measure has closed it already.
func measure(cfg runConfig) (*measured, error) {
	m := &measured{counters: map[string]float64{}}
	repeats := setupRepeats
	if cfg.smoke || cfg.trace {
		repeats = 1 // set-up time is an untraced, full-scale metric
	}
	for i := 0; i < repeats; i++ {
		if m.w != nil {
			if err := m.w.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		w, err := newWorkload(cfg.workload)
		if err != nil {
			return nil, err
		}
		m.w = w
		if err := w.setup(&env{seed: cfg.seed, smoke: cfg.smoke, dir: cfg.dir, self: cfg.self}); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		m.ref = runPass(w, "bare", 0, nil, nil)
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}

	kinds := []string{"bare"}
	if cfg.trace {
		m.tr = newTracer(cfg.workload)
		kinds = append(kinds, "traced", "probed")
		if x, ok := m.w.(interface{ extraKinds() []string }); ok {
			kinds = append(kinds, x.extraKinds()...)
		}
	}
	// Kinds take turns, one round after another, until the time is up and
	// each has run often enough: three bare passes for a median when they
	// are all there is, one of each kind otherwise.
	need := minPasses
	if cfg.trace || cfg.smoke {
		need = 1
	}
	start := time.Now()
	for n := 0; n < need*len(kinds) || time.Since(start).Seconds() < cfg.seconds; n++ {
		m.passes = append(m.passes, runPass(m.w, kinds[n%len(kinds)], n/len(kinds), m.tr, m.counters))
	}
	return m, nil
}

// samples collects one measurement from every pass of a kind.
func (m *measured) samples(kind string, get func(*passRecord) (float64, bool)) []float64 {
	var xs []float64
	for i := range m.passes {
		if p := &m.passes[i]; p.kind == kind {
			if v, ok := get(p); ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// verify holds every pass to the reference pass and the reference pass to
// the golden, and counts operations. A cell whose inputs are its round's
// own is held to the first pass that ran that round (the bare one, so the
// traced and probed passes must reproduce it). A cell that errs, or whose
// statistics differ, in any pass fails every operation of that cell in all
// of them: a change that alters a simulated statistic must fail here
// instead of registering as a speed-up.
func (m *measured) verify(cfg runConfig) (attempted, failed int64, failures []string) {
	bad := map[string]string{}
	ref := map[string]string{}
	for _, c := range m.ref.cells {
		ref[c.key()] = c.Stats
		if c.Err != "" {
			bad[c.Name] = c.Err
		} else if want, checked := cfg.golden.lookup(cfg, c.Name); checked && want != c.Stats {
			bad[c.Name] = fmt.Sprintf("golden mismatch: got %q, want %q", c.Stats, want)
		}
	}
	for i := range m.passes {
		p := &m.passes[i]
		for _, c := range p.cells {
			switch want, ok := ref[c.key()]; {
			case bad[c.Name] != "":
			case c.Err != "":
				bad[c.Name] = c.Err
			case !ok:
				ref[c.key()] = c.Stats
			case c.Stats != want:
				bad[c.Name] = fmt.Sprintf("%s pass %d differs from the first pass on the same inputs (%s): got %q, want %q", p.kind, i, c.key(), c.Stats, want)
			}
		}
	}
	for i := range m.passes {
		for _, c := range m.passes[i].cells {
			attempted += c.Ops
			if bad[c.Name] != "" {
				failed += c.Ops
			}
		}
	}
	for _, name := range sortedKeys(bad) {
		failures = append(failures, cfg.workload+"/"+name+": "+bad[name])
	}
	return attempted, failed, failures
}

// slotsOf is the switch-slots a pass's cells simulated.
func slotsOf(cells []cellResult) float64 {
	var s int64
	for _, c := range cells {
		s += c.Slots
	}
	return float64(s)
}

// endToEndMetrics are the five user-facing figures, from the bare passes.
func (m *measured) endToEndMetrics() map[string]summary {
	pick := func(get func(*passRecord) float64) []float64 {
		return m.samples("bare", func(p *passRecord) (float64, bool) { return get(p), true })
	}
	return map[string]summary{
		"wall_s":      summarize(pick(func(p *passRecord) float64 { return p.wallS }), "s"),
		"cpu_s":       summarize(pick(func(p *passRecord) float64 { return p.cpuS }), "s"),
		"slots_per_s": summarize(pick(func(p *passRecord) float64 { return slotsOf(p.cells) / p.wallS }), "1/s"),
		"sim_slots":   summarize(pick(func(p *passRecord) float64 { return slotsOf(p.cells) }), "count"),
		"setup_s":     summarize(m.setups, "s"),
	}
}

// layerMetrics are the workload's per-layer figures plus the harness's own
// four, from a traced run.
func (m *measured) layerMetrics() (map[string]float64, error) {
	name := m.tr.workload
	ix := m.tr.index()
	if err := ix.check(); err != nil {
		return nil, err
	}
	lv := &layerView{ix: ix, m: m, counters: m.counters}
	for i := range m.passes {
		switch m.passes[i].kind {
		case "traced":
			lv.passes++
		case "probed":
			lv.probed++
		}
	}
	out := m.w.layers(lv)
	out["bench.trace_overhead_frac."+name] = lv.overhead("traced")
	out["bench.peak_rss_mb."+name] = peakRSSMiB()
	out["bench.gc_count."+name] = lv.med("bare", "gcs")
	out["bench.alloc_mb."+name] = lv.med("bare", "alloc_mb")
	return out, nil
}

// summarize reduces samples to their median, range and quartiles.
func summarize(xs []float64, unit string) summary {
	s := summary{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Value, s.Q3 = quartiles(sorted)
	return s
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (its default exclusive method), which is what the driver judges
// the suite's steadiness with. xs must be sorted.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of xs (0 when empty).
func median(xs []float64) float64 { return summarize(xs, "").Value }

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}
