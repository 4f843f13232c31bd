package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops / zero), so disabled probes cost one
// predictable branch at each flush site.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous integer value. All methods are safe
// on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add shifts the gauge's value by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic instantaneous float64 value. All methods are
// safe on a nil receiver.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (zero on a nil receiver).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket atomic histogram: observations are counted
// into the first bucket whose upper bound is >= the value, with an
// implicit +Inf overflow bucket. All methods are safe on a nil receiver;
// Observe never allocates.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (zero on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (zero on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metricKind tags what a registered name holds, so one name cannot be
// registered as two different kinds.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindFloatGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindFloatGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry is a named set of metrics. Metric getters are get-or-create
// and safe for concurrent use; all methods are safe on a nil receiver
// (they return nil metrics, whose methods are no-ops), which is how a
// whole probe bundle degrades to predictable-branch no-ops when
// observability is off.
//
// Names follow the Prometheus data model: a base name of
// [a-zA-Z_:][a-zA-Z0-9_:]* optionally followed by a {key="value",...}
// label set, e.g. `qswitch_shard_worker_chunks_total{worker="0"}`.
// Samples sharing a base name form one family and must share a kind.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]metricKind // by base name
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    map[string]metricKind{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		fgauges:  map[string]*FloatGauge{},
		hists:    map[string]*Histogram{},
	}
}

// baseName strips a trailing {labels} block.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// checkName panics on malformed metric names: metric registration is
// programmer-controlled, so a bad name is a bug, not an input error.
func checkName(name string) {
	if err := ValidateName(name); err != nil {
		panic(fmt.Sprintf("obs: bad metric name %q: %v", name, err))
	}
}

// validateBaseName checks a bare metric name against the Prometheus data
// model ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validateBaseName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("metric name %q has invalid character %q", name, c)
		}
	}
	return nil
}

// ValidateName checks a full sample name against the Prometheus data
// model: a base name optionally followed by one well-formed
// {key="value",...} label block. Registration panics on a name it
// rejects.
func ValidateName(name string) error {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return validateBaseName(name)
	}
	if err := validateBaseName(name[:i]); err != nil {
		return err
	}
	rest := name[i+1:]
	if !strings.HasSuffix(rest, "}") {
		return fmt.Errorf("unterminated label block in %q", name)
	}
	rest = strings.TrimSuffix(rest, "}")
	if strings.ContainsAny(rest, "{}") {
		return fmt.Errorf("nested label block in %q", name)
	}
	if rest == "" {
		return nil
	}
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("label without value in %q", name)
		}
		if err := validateBaseName(rest[:eq]); err != nil {
			return fmt.Errorf("bad label name in %q: %w", name, err)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", name)
		}
		rest = rest[1:]
		end := -1
		for j := 0; j < len(rest); j++ {
			switch rest[j] {
			case '\\':
				j++ // escaped character
			case '"':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", name)
		}
		rest = rest[end+1:]
		if rest == "" {
			return nil
		}
		if rest[0] != ',' {
			return fmt.Errorf("malformed label separator in %q", name)
		}
		rest = rest[1:]
	}
	return fmt.Errorf("trailing label separator in %q", name)
}

// register reserves name under kind, panicking on cross-kind collisions.
func (r *Registry) register(name string, kind metricKind) {
	checkName(name)
	base := baseName(name)
	if prev, ok := r.kinds[base]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric family %q registered as both %s and %s", base, prev, kind))
	}
	r.kinds[base] = kind
}

// Counter returns the named counter, creating it on first use. Nil
// registries return a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named integer gauge, creating it on first use. Nil
// registries return a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, kindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
// Nil registries return a nil (no-op) gauge.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.fgauges[name]; ok {
		return g
	}
	r.register(name, kindFloatGauge)
	g := &FloatGauge{}
	r.fgauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending bucket upper bounds (a +Inf bucket is implicit;
// bounds are ignored when the histogram already exists). Nil registries
// return a nil (no-op) histogram. Histogram names must not carry labels.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if strings.IndexByte(name, '{') >= 0 {
		panic(fmt.Sprintf("obs: histogram %q: labeled histograms are not supported", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q: bucket bounds not ascending", name))
		}
	}
	r.register(name, kindHistogram)
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1)}
	r.hists[name] = h
	return h
}

// Snapshot returns every sample as a flat name -> value map: counters and
// gauges under their own names, histograms as name_count and name_sum.
// Nil registries return nil.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+len(r.fgauges)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, g := range r.fgauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
	}
	return out
}

// DiffSnapshot returns after - before for every key of after whose delta
// is nonzero (keys absent from before count from zero). It is how run
// reports turn two Snapshot calls into a per-run probe delta.
func DiffSnapshot(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// family is one base name's samples, ordered for deterministic output.
type family struct {
	base    string
	kind    metricKind
	samples []sample
	hist    *Histogram
}

type sample struct {
	name  string
	value float64
	isInt bool
}

// families snapshots the registry grouped and sorted by base name.
func (r *Registry) families() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	byBase := map[string]*family{}
	get := func(name string, kind metricKind) *family {
		base := baseName(name)
		f, ok := byBase[base]
		if !ok {
			f = &family{base: base, kind: kind}
			byBase[base] = f
		}
		return f
	}
	for name, c := range r.counters {
		f := get(name, kindCounter)
		f.samples = append(f.samples, sample{name, float64(c.Value()), true})
	}
	for name, g := range r.gauges {
		f := get(name, kindGauge)
		f.samples = append(f.samples, sample{name, float64(g.Value()), true})
	}
	for name, g := range r.fgauges {
		f := get(name, kindFloatGauge)
		f.samples = append(f.samples, sample{name, g.Value(), false})
	}
	for name, h := range r.hists {
		f := get(name, kindHistogram)
		f.hist = h
	}
	out := make([]family, 0, len(byBase))
	for _, f := range byBase {
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].name < f.samples[j].name })
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

func formatValue(v float64, isInt bool) string {
	if isInt {
		return strconv.FormatInt(int64(v), 10)
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, samples sorted by
// name, histograms as cumulative _bucket/_sum/_count series. The output
// is deterministic given the sample values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.families() {
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.base, f.kind)
		if f.kind == kindHistogram {
			h := f.hist
			cum := int64(0)
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatValue(h.bounds[i], false)
				}
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", f.base, le, cum)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", f.base, formatValue(h.Sum(), false))
			fmt.Fprintf(&b, "%s_count %d\n", f.base, h.Count())
			continue
		}
		for _, s := range f.samples {
			fmt.Fprintf(&b, "%s %s\n", s.name, formatValue(s.value, s.isInt))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteVars renders the registry's Snapshot as one sorted JSON object —
// the /debug/vars payload.
func (r *Registry) WriteVars(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = map[string]float64{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap) // encoding/json sorts map keys
}
