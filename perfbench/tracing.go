package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xplacer/internal/core"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/timeline"
	"xplacer/internal/trace"
	"xplacer/internal/um"
	"xplacer/internal/wire"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share Op; Parent is the enclosing span's ID, or -1.
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps the traced run's spans in memory. begin/end nest on the
// benchmark's driving goroutine; add records a finished span from any
// goroutine. A nil tracer records nothing, which is how the gated runs
// stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

func (t *tracer) setOp(k int) {
	if t != nil {
		t.mu.Lock()
		t.op = k
		t.mu.Unlock()
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op, Start: t.us(now)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.us(now)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// current returns the innermost open span on the driving goroutine.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Op: t.op, Start: t.us(start), End: t.us(end)})
}

// opTotal sums the durations (ms) of the current op's spans named name.
func (t *tracer) opTotal(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Op == t.op; i-- {
		if t.spans[i].Name == name {
			total += t.spans[i].dur()
		}
	}
	return total / 1e3
}

// opCount counts the current op's spans named name.
func (t *tracer) opCount(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Op == t.op; i-- {
		if t.spans[i].Name == name {
			n++
		}
	}
	return float64(n)
}

// selfTimes summarizes the spans by name: a span's self time is its
// duration minus the union of its children's intervals; each line gives
// the median over ops of the per-op total, and the calls per op.
func (t *tracer) selfTimes() []string {
	children := map[int][]*span{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], &t.spans[i])
		}
	}
	type key struct {
		name string
		op   int
	}
	self, calls := map[key]float64{}, map[key]int{}
	ops := map[int]bool{}
	for i := range t.spans {
		s := &t.spans[i]
		k := key{s.Name, s.Op}
		self[k] += (s.dur() - covered(s, children[s.ID])) / 1e3
		calls[k]++
		ops[s.Op] = true
	}
	byName := map[string][]float64{}
	callsBy := map[string]int{}
	for k, v := range self {
		byName[k.name] = append(byName[k.name], v)
		callsBy[k.name] += calls[k]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		vals := byName[n]
		for len(vals) < len(ops) {
			vals = append(vals, 0)
		}
		out = append(out, fmt.Sprintf("span %-18s self_ms_p50=%.4f calls_per_op=%.1f", n, median(vals), float64(callsBy[n])/float64(len(ops))))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p *span, kids []*span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, -1.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeSpans writes the traced run's spans under .bench_build/spans.
func writeSpans(root string, cfg runConfig, spans []span) error {
	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	return nil
}

// spanMark is a kernel-span boundary in a capture: the pattern sink
// opened span name before batch at.
type spanMark struct {
	at   int
	name string
}

// capture is the copying record.Sink of the traced run: it keeps a copy
// of every batch the engine drains, plus the allocations and kernel-span
// boundaries the layer ladder needs to replay them.
type capture struct {
	batches [][]shadow.Access
	marks   []spanMark
	allocs  []wire.AllocInfo
}

// Apply implements record.Sink.
func (c *capture) Apply(b []shadow.Access, _ *record.Cursor) {
	c.batches = append(c.batches, append([]shadow.Access(nil), b...))
}

// boundary is the forwarding cuda.Tracer/RangeTracer the traced run
// installs in front of a session's tracer. It counts every boundary call
// but times only the drain points (transfers, frees, and kernel launches
// when launches drain), never a per-access call. It also closes the
// diagnostic spans a timeline consumer opens at each diagnostic mark
// inside an app: a diagnostic ends at the next boundary call.
type boundary struct {
	inner *trace.Tracer
	tr    *tracer
	cap   *capture
	// launchDrains is set when a pattern or stream sink makes every
	// kernel launch a drain point.
	launchDrains bool

	access, ranges, rangeElems, transfers, launches int64
	drains                                          int64
	drainDur                                        time.Duration

	diagSpan int  // open implicit diagnostic span, or -1
	explicit bool // a diagnostic the benchmark called itself is running
}

// installBoundary wraps s's tracer, attaches a capture sink, and
// registers the diagnostic-mark consumer. It returns nil for a nil
// tracer, and every method is a no-op or a plain forward on nil.
func installBoundary(s *core.Session, tr *tracer, launchDrains bool) *boundary {
	if tr == nil {
		return nil
	}
	b := &boundary{inner: s.Tracer, tr: tr, cap: &capture{}, launchDrains: launchDrains, diagSpan: -1}
	s.Tracer.AddSink(b.cap)
	s.Ctx.SetTracer(b)
	s.Ctx.Timeline().AddConsumer(b)
	return b
}

// Consume implements timeline.Consumer.
func (b *boundary) Consume(ev *timeline.Event) {
	if ev.Kind == timeline.KindDiagnostic && !b.explicit {
		b.closeDiag()
		b.diagSpan = b.tr.begin("diag")
	}
}

func (b *boundary) closeDiag() {
	if b != nil && b.diagSpan >= 0 {
		b.tr.end(b.diagSpan)
		b.diagSpan = -1
	}
}

// TraceAccess implements cuda.Tracer.
func (b *boundary) TraceAccess(dev machine.Device, a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	b.access++
	if b.diagSpan >= 0 {
		b.closeDiag()
	}
	b.inner.TraceAccess(dev, a, addr, size, kind)
}

// TraceAccessRange implements cuda.RangeTracer.
func (b *boundary) TraceAccessRange(dev machine.Device, a *memsim.Alloc, addr memsim.Addr, count int, stride, size int64, kind memsim.AccessKind) {
	b.ranges++
	b.rangeElems += int64(count)
	if b.diagSpan >= 0 {
		b.closeDiag()
	}
	b.inner.TraceAccessRange(dev, a, addr, count, stride, size, kind)
}

// TraceAlloc implements cuda.Tracer.
func (b *boundary) TraceAlloc(a *memsim.Alloc) {
	b.closeDiag()
	b.cap.allocs = append(b.cap.allocs, wire.AllocInfo{ID: a.ID, Base: a.Base, Size: a.Size, Kind: a.Kind, Label: a.Label})
	b.inner.TraceAlloc(a)
}

// TraceFree implements cuda.Tracer; a free is a drain point.
func (b *boundary) TraceFree(a *memsim.Alloc) {
	b.closeDiag()
	t0 := time.Now()
	b.inner.TraceFree(a)
	b.drains++
	b.drainDur += time.Since(t0)
}

// TraceTransfer implements cuda.Tracer; a transfer is a drain point.
func (b *boundary) TraceTransfer(a *memsim.Alloc, dir um.TransferDir, off, n int64) {
	b.closeDiag()
	b.transfers++
	t0 := time.Now()
	b.inner.TraceTransfer(a, dir, off, n)
	b.drains++
	b.drainDur += time.Since(t0)
}

// TraceKernelLaunch implements cuda.Tracer; with launchDrains the launch
// is a drain point and opens a new kernel span in the capture.
func (b *boundary) TraceKernelLaunch(name string) {
	b.closeDiag()
	b.launches++
	if !b.launchDrains {
		b.inner.TraceKernelLaunch(name)
		return
	}
	t0 := time.Now()
	b.inner.TraceKernelLaunch(name)
	b.drains++
	b.drainDur += time.Since(t0)
	b.cap.marks = append(b.cap.marks, spanMark{at: len(b.cap.batches), name: name})
}

// flush is the benchmark's own explicit drain before it reads the
// analysis sinks.
func (b *boundary) flush(s *core.Session) {
	if b == nil {
		s.Tracer.Flush()
		return
	}
	id := b.tr.begin("tracer.flush")
	t0 := time.Now()
	s.Tracer.Flush()
	b.drains++
	b.drainDur += time.Since(t0)
	b.tr.end(id)
}

// diagnostic runs the session's end-of-run diagnostic under a span.
func (b *boundary) diagnostic(s *core.Session, title string) diag.Report {
	if b == nil {
		return s.Diagnostic(nil, title)
	}
	b.closeDiag()
	b.explicit = true
	id := b.tr.begin("diag")
	r := s.Diagnostic(nil, title)
	b.tr.end(id)
	b.explicit = false
	return r
}

// addTo folds the boundary counts of one session into an op's sample.
func (b *boundary) addTo(s sample) {
	s["cuda.kernels"] += float64(b.launches)
	s["trace.access_calls"] += float64(b.access)
	s["trace.range_calls"] += float64(b.ranges)
	s["trace.range_elems"] += float64(b.rangeElems)
	s["trace.transfers"] += float64(b.transfers)
	s["trace.drain_calls"] += float64(b.drains)
	s["trace.drain_ms"] += ms(b.drainDur)
}

// spanned runs f under a span named name (f alone when tr is nil).
func spanned(tr *tracer, name string, f func()) {
	id := tr.begin(name)
	f()
	tr.end(id)
}
