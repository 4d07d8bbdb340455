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
// (internal/record), and the analysis state the drained batches and the
// wrappers' events apply to — the shadow table, the optional heat map
// and pattern classifier, the attached wire streams — is a
// pipeline.Pipeline, the engine's sink. The tracer itself keeps only its
// counters and the flush ordering of its interception points: why a
// transfer's bulk access lands after every buffered element access, and
// when a kernel launch is a drain point. What concurrent simulated
// kernels may assume is documented once, in package record.
package trace

import (
	"fmt"
	"sync/atomic"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/pipeline"
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
	pl  *pipeline.Pipeline
	eng *record.Engine

	// Wrapper event counters; element-access kind counts live in the
	// engine, untracked counts in the pipeline.
	allocs, frees, h2d, d2h, kernels atomic.Int64
}

// New creates an enabled tracer with an empty shadow memory table.
func New() *Tracer {
	pl := pipeline.New()
	return &Tracer{pl: pl, eng: record.NewEngine(pl)}
}

// AddSink attaches an additional observer (e.g. a record.HeatmapSink) to
// the tracer's engine; it sees every batch drained from now on.
func (t *Tracer) AddSink(s record.Sink) { t.eng.AddSink(s) }

// Table flushes buffered accesses and exposes the shadow memory table for
// diagnostics. The table itself is not goroutine-safe: callers must not
// use it while simulated kernels are still tracing.
func (t *Tracer) Table() *shadow.Table {
	t.eng.Flush()
	return t.pl.Table()
}

// Pipeline flushes buffered accesses and exposes the tracer's analysis
// pipeline. Like Table, it is not goroutine-safe: attach analyses and
// streams to it before recording starts, and read them after the run.
func (t *Tracer) Pipeline() *pipeline.Pipeline {
	t.eng.Flush()
	return t.pl
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
		Untracked:    t.pl.Untracked(),
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
		err = t.pl.Alloc(wire.AllocInfo{ID: a.ID, Base: a.Base, Size: a.Size, Kind: a.Kind, Label: a.Label, Fn: allocFnName(a.Kind)})
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
	t.eng.Locked(func() { t.pl.Free(a.ID) })
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
	t.eng.Locked(func() { t.pl.Transfer(wire.TransferInfo{ID: a.ID, Dir: byte(dir), Off: off, N: n}) })
}

// EnablePatterns attaches an access-pattern classifier (pattern.Sink)
// over the tracer's shadow table and returns it. now (optional) is the
// simulated clock the sink stamps span start times with — pass
// Context.Now so -patterns rows line up with the exported timeline.
// While the sink is attached, every kernel launch flushes the access
// buffers and opens a new attribution span; without it the launch
// wrapper stays a counter increment, so existing flush schedules (and
// the golden reports derived from them) are unaffected. Call before
// recording starts.
func (t *Tracer) EnablePatterns(now func() machine.Duration) *pattern.Sink {
	return t.Pipeline().EnablePatterns(now)
}

// Patterns returns the attached pattern sink, or nil.
func (t *Tracer) Patterns() *pattern.Sink { return t.pl.Patterns() }

// EnableStream attaches a wire streaming sink: every drained batch,
// allocation event, free, label, transfer, and kernel-launch span marker
// is forwarded on the wire, so a consumer (cmd/xplagg, or the
// -trace-budget replay) can rebuild the shadow table and run the same
// analyses through its own pipeline.Pipeline. Several sinks may be
// attached; each sees the same frames. Like a pattern sink, a stream
// makes kernel launches drain points. Call before recording starts; the
// caller owns Close on the sink after the final flush.
func (t *Tracer) EnableStream(ss *wire.StreamSink) { t.Pipeline().AddStream(ss) }

// TraceKernelLaunch implements cuda.Tracer (the kernel-launch wrapper of
// Table I). With a pattern or stream sink attached the launch is also a
// drain point: buffered accesses flush into the previous span, then the
// new span opens under the engine lock.
func (t *Tracer) TraceKernelLaunch(name string) {
	t.kernels.Add(1)
	if !t.pl.WantsSpans() {
		return
	}
	t.eng.Flush()
	t.eng.Locked(func() { t.pl.Span(name) })
}

// Name attaches a user-level label to the allocation's SMT entry — the
// runtime effect of the XplAllocData argument expansion of
// #pragma xpl diagnostic (§III-B).
func (t *Tracer) Name(a *memsim.Alloc, label string) {
	t.eng.Locked(func() { t.pl.Label(a.ID, label) })
}
