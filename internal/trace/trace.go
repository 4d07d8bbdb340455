// Package trace is XPlacer's runtime instrumentation layer for the
// simulated platform (paper §III-B, Table I). It implements the
// cuda.Tracer hook interface: every element access funnels through
// TraceAccess (the analog of traceR / traceW / traceRW), allocation
// wrappers maintain the shadow memory table, memcpy wrappers record bulk
// CPU reads/writes, and kernel launches are counted.
//
// The tracer deliberately performs its own address-to-allocation lookup on
// every access — the same SMT search the paper's prototype does — so the
// instrumentation overhead characteristics of Table III carry over. The
// per-P buffering and batch-drain machinery that keeps that lookup
// off the per-access critical path lives in the shared recording engine
// (internal/record); the tracer is a thin front end wiring the engine's
// canonical TableSink to the CUDA-like wrappers. Flush ordering (why a
// transfer's bulk access lands after every buffered element access, and
// what concurrent simulated kernels may assume) is documented once, in
// package record.
package trace

import (
	"fmt"
	"sync/atomic"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/um"
	"xplacer/internal/wire"
)

// Stats counts instrumentation events.
type Stats struct {
	// Reads, Writes, ReadWrites count traced element accesses by kind.
	Reads, Writes, ReadWrites int64
	// Untracked counts accesses to addresses outside the SMT (ignored,
	// §III-C), including transfers whose range misses the SMT. Untracked
	// accesses are detected when their batch drains, so the count is
	// exact only after a flush — Stats() flushes for you.
	Untracked int64
	// Allocs and Frees count intercepted allocation calls.
	Allocs, Frees int64
	// TransfersH2D and TransfersD2H count intercepted memcpys.
	TransfersH2D, TransfersD2H int64
	// Kernels counts intercepted kernel launches.
	Kernels int64
}

// Tracer records memory operations into shadow memory through the shared
// recording engine. The zero value is not usable; call New. TraceAccess
// may be called from concurrent goroutines (parallel simulated kernels);
// diagnostics and the other wrappers flush the access buffers before
// touching the table.
type Tracer struct {
	sink *record.TableSink
	eng  *record.Engine

	// patterns is the optional access-pattern classifier sink
	// (EnablePatterns). While attached, every kernel launch becomes a
	// drain point so accesses attribute to the span of the kernel that
	// made them; nil keeps the launch wrapper a bare counter increment
	// and the flush schedule unchanged.
	patterns *pattern.Sink

	// streams are the attached wire streaming sinks (EnableStream): an
	// out-of-process aggregator feed, a budgeted local log, or both.
	// Besides seeing every drained batch, each receives the shadow-table
	// life-cycle events (alloc, free, label, transfer) and span markers, so
	// a consumer can rebuild exactly the state an in-process TableSink
	// holds. Like patterns, they make kernel launches drain points.
	streams []*wire.StreamSink

	// Wrapper event counters; element-access kind counts live in the
	// engine, untracked counts in the sink.
	allocs, frees, h2d, d2h, kernels atomic.Int64
}

// New creates an enabled tracer with an empty shadow memory table.
func New() *Tracer {
	sink := record.NewTableSink(shadow.NewTable())
	return &Tracer{sink: sink, eng: record.NewEngine(sink)}
}

// AddSink attaches an additional observer (e.g. a record.HeatmapSink) to
// the tracer's engine; it sees every batch drained from now on.
func (t *Tracer) AddSink(s record.Sink) { t.eng.AddSink(s) }

// Table flushes buffered accesses and exposes the shadow memory table for
// diagnostics. The table itself is not goroutine-safe: callers must not
// use it while simulated kernels are still tracing.
func (t *Tracer) Table() *shadow.Table {
	t.eng.Flush()
	return t.sink.Table()
}

// Stats flushes buffered accesses and returns cumulative instrumentation
// statistics.
func (t *Tracer) Stats() Stats {
	t.eng.Flush()
	c := t.eng.Counts()
	return Stats{
		Reads:        c.Reads,
		Writes:       c.Writes,
		ReadWrites:   c.ReadWrites,
		Untracked:    t.sink.Untracked(),
		Allocs:       t.allocs.Load(),
		Frees:        t.frees.Load(),
		TransfersH2D: t.h2d.Load(),
		TransfersD2H: t.d2h.Load(),
		Kernels:      t.kernels.Load(),
	}
}

// SetEnabled turns tracing on or off. Allocation bookkeeping continues
// while disabled so that the SMT stays consistent; only access recording
// stops.
func (t *Tracer) SetEnabled(on bool) { t.eng.SetEnabled(on) }

// Enabled reports whether access recording is active.
func (t *Tracer) Enabled() bool { return t.eng.Enabled() }

// Flush drains every buffered access into the shadow table. Table() and
// Stats() flush implicitly, as do the free and transfer wrappers.
func (t *Tracer) Flush() { t.eng.Flush() }

// allocFnName maps an allocation kind to the API function the wrapper
// intercepted, for diagnostic messages.
func allocFnName(k memsim.Kind) string {
	switch k {
	case memsim.Managed:
		return "cudaMallocManaged"
	case memsim.DeviceOnly:
		return "cudaMalloc"
	default:
		return "malloc"
	}
}

// TraceAlloc implements cuda.Tracer (the trcMalloc/trcMallocManaged
// wrappers): it creates the SMT entry and shadow memory.
func (t *Tracer) TraceAlloc(a *memsim.Alloc) {
	t.allocs.Add(1)
	var err error
	t.eng.Locked(func() {
		_, err = t.sink.Table().Insert(a, allocFnName(a.Kind))
		if err != nil {
			return
		}
		for _, ss := range t.streams {
			ss.Alloc(wire.AllocInfo{ID: a.ID, Base: a.Base, Size: a.Size, Kind: a.Kind, Label: a.Label, Fn: allocFnName(a.Kind)})
		}
	})
	if err != nil {
		// An overlap means the simulated allocator handed out overlapping
		// ranges — a bug worth failing loudly on.
		panic(fmt.Sprintf("trace: %v", err))
	}
}

// TraceFree implements cuda.Tracer (the trcFree wrapper): user memory is
// released immediately, shadow memory is retained until the next
// diagnostic (§III-C). Accesses buffered before the free are drained first
// so they still land in the entry.
func (t *Tracer) TraceFree(a *memsim.Alloc) {
	t.frees.Add(1)
	t.eng.Flush()
	t.eng.Locked(func() {
		t.sink.Table().MarkFreed(a.ID)
		for _, ss := range t.streams {
			ss.Free(a.ID)
		}
	})
}

// TraceAccess implements cuda.Tracer; it is the runtime body of traceR,
// traceW, and traceRW. It only records into an engine slot — safe for
// concurrent simulated kernels.
func (t *Tracer) TraceAccess(dev machine.Device, _ *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	t.eng.Record(dev, addr, size, kind)
}

// TraceAccessRange implements cuda.Tracer: a strided sweep of count
// elements of size bytes, the k-th at addr + k*stride, recorded as one
// run-length-encoded entry with the exact per-word semantics of count
// TraceAccess calls in ascending order.
func (t *Tracer) TraceAccessRange(dev machine.Device, _ *memsim.Alloc, addr memsim.Addr, count int, stride, size int64, kind memsim.AccessKind) {
	t.eng.RecordRange(dev, addr, count, stride, size, kind)
}

// TraceTransfer implements cuda.Tracer: the copy applies to the shadow
// table through shadow.Table.Transfer (host-to-device as CPU writes of
// the range, device-to-host as CPU reads; §III-C, "Unnecessary data
// transfers"). Buffered accesses are flushed first so the transfer's bulk
// access lands after them. A transfer whose range is not in the SMT
// counts as untracked, like any other missed access.
func (t *Tracer) TraceTransfer(a *memsim.Alloc, dir um.TransferDir, off, n int64) {
	if !t.eng.Enabled() {
		return
	}
	t.eng.Flush()
	if dir == um.HostToDevice {
		t.h2d.Add(1)
	} else {
		t.d2h.Add(1)
	}
	t.eng.Locked(func() {
		if !t.sink.Table().Transfer(a.ID, dir == um.HostToDevice, off, n) {
			t.sink.AddUntracked(1)
		}
		for _, ss := range t.streams {
			ss.Transfer(a.ID, byte(dir), off, n)
		}
	})
}

// EnablePatterns attaches an access-pattern classifier (pattern.Sink)
// over the tracer's shadow table and returns it. now (optional) is the
// simulated clock the sink stamps span start times with — pass
// Context.Now so -patterns rows line up with the exported timeline.
// While the sink is attached, every kernel launch flushes the access
// buffers and opens a new attribution span; without it the launch
// wrapper stays a counter increment, so existing flush schedules (and
// the golden reports derived from them) are unaffected.
func (t *Tracer) EnablePatterns(now func() machine.Duration) *pattern.Sink {
	var ps *pattern.Sink
	t.eng.Locked(func() {
		ps = pattern.NewSink(t.sink.Table())
		ps.SetClock(now)
	})
	t.eng.AddSink(ps)
	t.patterns = ps
	return ps
}

// Patterns returns the attached pattern sink, or nil.
func (t *Tracer) Patterns() *pattern.Sink { return t.patterns }

// EnableStream attaches a wire streaming sink: every drained batch,
// allocation event, free, label, transfer, and kernel-launch span marker
// is forwarded on the wire, so a consumer (cmd/xplagg, or the
// -trace-budget replay) can rebuild the shadow table and run the same
// analyses through a pipeline.Pipeline. Several sinks may be attached;
// each sees the same frames. Call before recording starts; the caller
// owns Close on the sink after the final flush.
func (t *Tracer) EnableStream(ss *wire.StreamSink) {
	t.eng.AddSink(ss)
	t.streams = append(t.streams, ss)
}

// TraceKernelLaunch implements cuda.Tracer (the kernel-launch wrapper of
// Table I). With a pattern or stream sink attached the launch is also a
// drain point: buffered accesses flush into the previous span, then the
// new span opens under the engine lock.
func (t *Tracer) TraceKernelLaunch(name string) {
	t.kernels.Add(1)
	ps := t.patterns
	if ps == nil && len(t.streams) == 0 {
		return
	}
	t.eng.Flush()
	t.eng.Locked(func() {
		if ps != nil {
			ps.BeginSpan(name)
		}
		for _, ss := range t.streams {
			ss.Span(name)
		}
	})
}

// Name attaches a user-level label to the allocation's SMT entry — the
// runtime effect of the XplAllocData argument expansion of
// #pragma xpl diagnostic (§III-B).
func (t *Tracer) Name(a *memsim.Alloc, label string) {
	t.eng.Locked(func() {
		if e := t.sink.Table().FindByID(a.ID); e != nil {
			e.Label = label
		}
		for _, ss := range t.streams {
			ss.Label(a.ID, label)
		}
	})
}
