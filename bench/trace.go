package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Chunk, run and
// experiment spans are individual; per-call decorators (a policy's
// Schedule, a stream's Next) fold into one aggregate span per parent, whose
// interval starts at the first call and lasts the summed busy time, so
// memory stays bounded however many calls a pass makes.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Calls    int64  `json:"calls"`
	Items    int64  `json:"items"`
	Agg      bool   `json:"agg,omitempty"` // an aggregate of many calls, not one interval

	t *tracer
}

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. A nil tracer records nothing: every method is nil-safe,
// so workloads call it unconditionally and the untraced run pays one
// predictable branch per boundary.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []*span
	workload string
	pass     int
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens an individual span under parent (nil: a root).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	return t.add(parent, name, time.Now(), 0, 1, 0, false)
}

// end closes the span, recording how many items (packets, slots, seeds —
// whatever the boundary counts) it covered.
func (s *span) end(items int64) {
	if s == nil {
		return
	}
	s.EndNS = int64(time.Since(s.t.epoch))
	s.Items = items
}

func (t *tracer) add(parent *span, name string, start time.Time, busy time.Duration, calls, items int64, agg bool) *span {
	s := &span{Name: name, StartNS: int64(start.Sub(t.epoch)), Calls: calls, Items: items, Agg: agg, t: t}
	s.EndNS = s.StartNS + int64(busy)
	if parent != nil {
		s.Parent = parent.ID
		if parent.Agg {
			// Both intervals are synthetic; keep the child inside.
			s.StartNS = min(max(s.StartNS, parent.StartNS), parent.EndNS)
			s.EndNS = min(s.EndNS, parent.EndNS)
		}
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	s.Workload, s.Pass = t.workload, t.pass
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// timer accumulates the busy time of many short calls for one aggregate
// span. With stride > 1 only every stride-th call is timed and the busy
// time is scaled up by calls/timed: a 50 ns clock read on both sides of a
// 20 ns trace-record decode would otherwise be most of what is measured.
// The stride is prime so it cannot lock onto a producer's refill period.
// A timer belongs to one goroutine at a time.
type timer struct {
	stride int64
	first  time.Time
	busy   time.Duration
	calls  int64
	timed  int64
	items  int64
}

// sampleStride is the stride the decorators of cheap calls use: a policy's
// Schedule, a trace record's decode. genStride is for generated streams,
// where a few refills that scan a long quiet gap are most of the time and a
// sparse sample of them would be too noisy to subtract from the run.
const (
	sampleStride = 61
	genStride    = 7
)

// clockCost is what a start/stop pair measures around nothing: the clock's
// own latency, which stop takes off every timed call. Without it a 60 ns
// Schedule on an empty switch reads as 100 ns, and the engine's self time —
// a run minus everything timed inside it — goes negative.
var clockCost = func() time.Duration {
	const n = 2000
	best := time.Hour
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}()

// start returns the call's start time, or the zero time when this call is
// not sampled.
func (m *timer) start() time.Time {
	m.calls++
	if m.stride > 1 && m.calls%m.stride != 0 {
		return time.Time{}
	}
	return time.Now()
}

// stop accounts a call begun with start.
func (m *timer) stop(t0 time.Time, items int64) {
	m.items += items
	if t0.IsZero() {
		return
	}
	m.busy += max(0, time.Since(t0)-clockCost)
	if m.timed == 0 {
		m.first = t0
	}
	m.timed++
}

// flush turns the timer into one aggregate span under parent, resets the
// timer and returns the span (nil when nothing was timed).
func (t *tracer) flush(parent *span, name string, m *timer) *span {
	if t == nil || m.calls == 0 {
		return nil
	}
	busy, first := m.busy, m.first
	if m.timed > 0 {
		busy = time.Duration(float64(busy) * float64(m.calls) / float64(m.timed))
	} else {
		first = time.Now() // fewer calls than one stride: counted, not timed
	}
	// The scaled estimate may overshoot; the span must still end before
	// its parent does, and the parent is open until after this flush.
	busy = min(busy, time.Since(first))
	s := t.add(parent, name, first, busy, m.calls, m.items, true)
	*m = timer{stride: m.stride}
	return s
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// total is the summed duration, calls and items of the spans a query
// matches.
type total struct {
	ns, calls, items int64
}

// perItem is ns per item, 0 when nothing was counted.
func (x total) perItem() float64 {
	if x.items == 0 {
		return 0
	}
	return float64(x.ns) / float64(x.items)
}

// perCall is ns per call.
func (x total) perCall() float64 {
	if x.calls == 0 {
		return 0
	}
	return float64(x.ns) / float64(x.calls)
}

// spanIndex answers the per-layer queries over a finished trace.
type spanIndex struct {
	spans []*span
	byID  map[int]*span
	kids  map[int][]*span
}

func (t *tracer) index() *spanIndex {
	ix := &spanIndex{spans: t.spans, byID: map[int]*span{}, kids: map[int][]*span{}}
	for _, s := range t.spans {
		ix.byID[s.ID] = s
		ix.kids[s.Parent] = append(ix.kids[s.Parent], s)
	}
	return ix
}

// under reports whether s has an ancestor (or is itself) named anc; an
// empty anc matches everything.
func (ix *spanIndex) under(s *span, anc string) bool {
	if anc == "" {
		return true
	}
	for ; s != nil; s = ix.byID[s.Parent] {
		if s.Name == anc {
			return true
		}
	}
	return false
}

// sum totals the spans whose name is name or starts with name+"/" and that
// lie under an ancestor named anc.
func (ix *spanIndex) sum(name, anc string) total {
	var x total
	for _, s := range ix.spans {
		if (s.Name == name || strings.HasPrefix(s.Name, name+"/")) && ix.under(s, anc) {
			x.ns += s.EndNS - s.StartNS
			x.calls += s.Calls
			x.items += s.Items
		}
	}
	return x
}

// self is a span's duration minus the part of that interval its child
// spans cover. Individual children are real intervals, so their union
// (clipped to the span) is what they cover: chunks in flight together are
// not subtracted twice. An aggregate child's interval is synthetic — its
// calls were spread over the parent, interleaved with its siblings' — so
// it covers its full busy time. Self time is floored at zero: aggregates
// that ran on two goroutines at once can cover more than the wall-clock.
func (ix *spanIndex) self(s *span) int64 {
	kids := append([]*span(nil), ix.kids[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, at := int64(0), s.StartNS
	for _, k := range kids {
		if k.Agg {
			covered += k.EndNS - k.StartNS
			continue
		}
		lo, hi := max(k.StartNS, at), min(k.EndNS, s.EndNS)
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return max(0, s.EndNS-s.StartNS-covered)
}

// cellLayers breaks every cell down by layer: for each "cell:NAME" span,
// the summed duration of each span name beneath it as a share of the cell's
// own duration. This is where "judge-bound" becomes a number per cell.
func (ix *spanIndex) cellLayers() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	cellNS := map[string]int64{}
	for _, s := range ix.spans {
		if cell, ok := strings.CutPrefix(s.Name, "cell:"); ok {
			cellNS[cell] += s.EndNS - s.StartNS
			continue
		}
		for a := ix.byID[s.Parent]; a != nil; a = ix.byID[a.Parent] {
			if cell, ok := strings.CutPrefix(a.Name, "cell:"); ok {
				if out[cell] == nil {
					out[cell] = map[string]float64{}
				}
				out[cell][s.Name] += float64(s.EndNS - s.StartNS)
				break
			}
		}
	}
	for cell, layers := range out {
		for name := range layers {
			layers[name] /= float64(max(cellNS[cell], 1))
		}
	}
	return out
}

// durations lists the duration of every span named name.
func (ix *spanIndex) durations(name string) []float64 {
	var ds []float64
	for _, s := range ix.spans {
		if s.Name == name {
			ds = append(ds, float64(s.EndNS-s.StartNS))
		}
	}
	return ds
}

// selfSum totals self time over the spans named name under anc.
func (ix *spanIndex) selfSum(name, anc string) int64 {
	var ns int64
	for _, s := range ix.spans {
		if s.Name == name && ix.under(s, anc) {
			ns += ix.self(s)
		}
	}
	return ns
}

// check verifies the structural invariants of a trace: every parent
// exists and every child lies inside its parent.
func (ix *spanIndex) check() error {
	for _, s := range ix.spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := ix.byID[s.Parent]
			if p == nil {
				return fmt.Errorf("span %d %q: parent %d missing", s.ID, s.Name, s.Parent)
			}
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return fmt.Errorf("span %d %q [%d,%d] outside parent %d %q [%d,%d]",
					s.ID, s.Name, s.StartNS, s.EndNS, p.ID, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
	return nil
}
