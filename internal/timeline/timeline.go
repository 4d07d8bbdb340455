// Package timeline is the unified event spine of the simulator: it owns
// the simulated clock (Clock) and a stream of typed, timestamped events —
// kernel spans, memcpy/async-copy spans, prefetches, aggregated
// unified-memory driver activity, advice calls, allocation lifecycle, and
// diagnostic points. The CUDA-like runtime (internal/cuda) and the UM
// driver (internal/um) are emitters over it; consumers (the Chrome-trace
// exporter in this package, the per-phase metrics aggregator, the
// clock-rotated heatmap epochs in internal/record) derive their views
// from the one event stream instead of keeping private time state.
//
// The per-element access hot path never emits events: per-access costs
// aggregate into kernel spans (internal/cuda.Exec) or host-phase windows
// (cuda.Context) and are emitted once per kernel or per drain point, so
// the trace-overhead characteristics of the recording engine are
// unaffected.
package timeline

import "xplacer/internal/machine"

// Kind classifies a timeline event.
type Kind uint8

// Event kinds.
const (
	// KindKernel is one kernel launch's span on its stream track.
	KindKernel Kind = iota
	// KindTransfer is an explicit memcpy span (sync on the host track,
	// async on its stream track).
	KindTransfer
	// KindPrefetch is a cudaMemPrefetchAsync-analog span.
	KindPrefetch
	// KindHostPhase is an aggregated window of host-side element accesses
	// (and the driver activity they caused) between two emission points.
	KindHostPhase
	// KindAlloc / KindFree are allocation lifecycle instants.
	KindAlloc
	KindFree
	// KindAdvice is a cudaMemAdvise instant, emitted by the UM driver.
	KindAdvice
	// KindSync is a host synchronization instant (device/stream/event).
	KindSync
	// KindDiagnostic marks a #pragma xpl diagnostic point.
	KindDiagnostic
	// KindWindow marks the close of an adaptive-analysis capture window
	// (internal/adapt): the controller ingested the events since the
	// previous window and re-ranked candidate placements.
	KindWindow
	// KindDecision marks a mid-run placement change applied by the
	// adaptive controller (cuda.Context.ApplyPlacement), so exported
	// traces show where and why the controller acted.
	KindDecision
)

func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindTransfer:
		return "transfer"
	case KindPrefetch:
		return "prefetch"
	case KindHostPhase:
		return "host"
	case KindAlloc:
		return "alloc"
	case KindFree:
		return "free"
	case KindAdvice:
		return "advice"
	case KindSync:
		return "sync"
	case KindDiagnostic:
		return "diagnostic"
	case KindWindow:
		return "window"
	case KindDecision:
		return "decision"
	default:
		return "event"
	}
}

// HostTrack is the Track value of events on the host timeline rather
// than a device stream.
const HostTrack = -1

// DriverStats is the per-event window of unified-memory driver activity,
// by fault class. It is the aggregate emission form of the UM driver's
// counters: instead of per-access events (which would put the driver on
// the hot path), the driver's deltas since the previous event are
// attached to the span they occurred in.
type DriverStats struct {
	FaultsCPU, FaultsGPU         int64
	MigrationsH2D, MigrationsD2H int64
	BytesH2D, BytesD2H           int64
	Duplications                 int64
	Invalidations                int64
	Evictions                    int64
	Thrashes                     int64
	CounterMigrations            int64
	Mappings                     int64
}

// IsZero reports whether the window recorded no driver activity.
func (d DriverStats) IsZero() bool { return d == DriverStats{} }

// Add accumulates o into d.
func (d *DriverStats) Add(o DriverStats) {
	d.FaultsCPU += o.FaultsCPU
	d.FaultsGPU += o.FaultsGPU
	d.MigrationsH2D += o.MigrationsH2D
	d.MigrationsD2H += o.MigrationsD2H
	d.BytesH2D += o.BytesH2D
	d.BytesD2H += o.BytesD2H
	d.Duplications += o.Duplications
	d.Invalidations += o.Invalidations
	d.Evictions += o.Evictions
	d.Thrashes += o.Thrashes
	d.CounterMigrations += o.CounterMigrations
	d.Mappings += o.Mappings
}

// PageAccess is the per-page access aggregate of one span: how many
// cost-words (4-byte units, the granularity the cost model charges) a
// kernel or host phase read and wrote on one page of one allocation, and
// over how many element accesses. Page indices are allocation-relative
// (page 0 holds the allocation's first byte).
type PageAccess struct {
	Page          int32
	Reads, Writes int64 // cost-words: sum of (size+3)/4 per access
	Accesses      int64
}

// Pattern is a span's classified access structure for one allocation,
// stamped by the emitter (internal/cuda derives it from its per-kernel
// trackers; see internal/pattern for the taxonomy). The what-if replayer
// consumes only PenaltyPct — the captured coalescing multiplier — so
// candidate rankings price coalescing without re-deriving the class;
// Class and StrideBytes are carried for reporting. The struct is local to
// this package so the timeline stays a leaf that imports only machine.
type Pattern struct {
	// Class is the pattern.Class name ("sequential", "strided", "scatter",
	// "random", "unknown"); empty when no classification was stamped.
	Class string
	// StrideBytes is the dominant start-to-start stride of strided walks.
	StrideBytes int64
	// PenaltyPct is the coalescing-inefficiency multiplier applied to the
	// span's memory time for this allocation, in percent extra.
	PenaltyPct int
}

// AllocAccess is one span's access aggregate for one allocation: the
// pages it touched, in first-touch order. It is the compact trace the
// what-if replay engine (internal/whatif) re-prices under candidate
// placements — aggregated per span, never per access.
type AllocAccess struct {
	AllocID int
	Pages   []PageAccess
	// Pattern is the span's classified access structure for this
	// allocation (kernel spans only; zero for host phases).
	Pattern Pattern
}

// Event is one typed, timestamped occurrence on the simulated timeline.
// Span events have Dur > 0; instants have Dur == 0. Only the fields that
// apply to the event's Kind are set.
type Event struct {
	Kind Kind
	// Seq is the emission index, assigned by Timeline.Emit.
	Seq int64
	// Name labels the event (kernel name, transfer direction, advice).
	Name string
	// Track places the event: a stream id for device spans, HostTrack for
	// host-side events.
	Track int
	// Start and Dur place the event on the simulated timeline.
	Start machine.Duration
	Dur   machine.Duration

	// Alloc / AllocID link allocation-scoped events (transfers, advice,
	// alloc/free, prefetch) to their allocation. AllocID is -1 when the
	// event is not allocation-scoped.
	Alloc   string
	AllocID int
	// Bytes is the payload size of transfers, allocs, and frees.
	Bytes int64
	// Async marks transfer spans issued on a non-blocking stream.
	Async bool

	// Kernel-span payload (the fields of the former cuda.KernelRecord).
	Index         int64 // global launch index
	Faults        int
	MigratedBytes int64
	PagesTouched  int
	Stalled       bool
	// Allocs lists the IDs of every allocation the kernel touched — the
	// hook that lets diagnostics attribute findings to kernel spans.
	Allocs []int

	// Accesses counts aggregated element accesses (host-phase windows).
	Accesses int64
	// Drv is the unified-memory driver activity that occurred during the
	// event, by fault class.
	Drv DriverStats

	// Detail carries free-form context (advice device, diagnostic title).
	Detail string

	// Off is the byte offset of range-scoped events: explicit transfers
	// and range advice. Whole-allocation advice carries Off == -1 to
	// distinguish it from a range that happens to start at 0.
	Off int64
	// Waits is the track a KindSync event waited on: a stream id for
	// streamSynchronize, WaitsAll for device/event synchronization, and
	// WaitsNone for events that carry no wait semantics.
	Waits int
	// Work is the placement-invariant compute time of the span: a kernel's
	// explicit Exec.Work total (pre-parallelism-division), or the part of a
	// host-phase window not attributable to element-access costs.
	Work machine.Duration
	// Accessed is the per-allocation page-level access aggregate of kernel
	// and host-phase spans, recorded only while what-if capture is enabled
	// (cuda.Context.SetWhatIfCapture). Nil otherwise.
	Accessed []AllocAccess
}

// Waits values for events that did not wait on a single track.
const (
	// WaitsNone marks an event with no wait semantics.
	WaitsNone = -1
	// WaitsAll marks a synchronization that drained every track.
	WaitsAll = -2
)

// End returns the event's end time (Start for instants).
func (e *Event) End() machine.Duration { return e.Start + e.Dur }

// Consumer observes events as they are emitted. Emit fans every event
// out to all registered consumers after recording it.
type Consumer interface {
	Consume(ev *Event)
}

// Timeline owns the clock and the ordered event stream of one simulated
// run. It is not goroutine-safe: like the rest of the simulated runtime,
// it is driven by the (sequential) simulation thread.
type Timeline struct {
	clock     *Clock
	events    []Event
	consumers []Consumer
}

// New returns an empty timeline with a fresh clock.
func New() *Timeline { return &Timeline{clock: NewClock()} }

// Clock returns the timeline's clock.
func (tl *Timeline) Clock() *Clock { return tl.clock }

// Now returns the current simulated host time.
func (tl *Timeline) Now() machine.Duration { return tl.clock.Now() }

// AddConsumer registers a consumer for subsequently emitted events.
func (tl *Timeline) AddConsumer(c Consumer) {
	tl.consumers = append(tl.consumers, c)
}

// Emit stamps the event with the next sequence number, records it, and
// fans it out to the consumers.
func (tl *Timeline) Emit(ev Event) {
	ev.Seq = int64(len(tl.events))
	tl.events = append(tl.events, ev)
	p := &tl.events[len(tl.events)-1]
	for _, c := range tl.consumers {
		c.Consume(p)
	}
}

// Len returns the number of recorded events.
func (tl *Timeline) Len() int { return len(tl.events) }

// Events returns a copy of the recorded events in emission order.
func (tl *Timeline) Events() []Event {
	return append([]Event(nil), tl.events...)
}

// EventsSince returns a copy of the events emitted at or after sequence
// number n, in emission order — the incremental accessor window-driven
// consumers (internal/adapt) use to ingest only the suffix they have not
// seen, instead of re-copying the whole stream every window.
func (tl *Timeline) EventsSince(n int) []Event {
	if n < 0 {
		n = 0
	}
	if n >= len(tl.events) {
		return nil
	}
	return append([]Event(nil), tl.events[n:]...)
}

// Kernels returns a copy of the kernel-span events in emission order.
func (tl *Timeline) Kernels() []Event {
	var out []Event
	for i := range tl.events {
		if tl.events[i].Kind == KindKernel {
			out = append(out, tl.events[i])
		}
	}
	return out
}

// Between returns copies of the events overlapping the simulated-time
// window [from, to], in emission order.
func (tl *Timeline) Between(from, to machine.Duration) []Event {
	var out []Event
	for i := range tl.events {
		ev := &tl.events[i]
		if ev.End() >= from && ev.Start <= to {
			out = append(out, *ev)
		}
	}
	return out
}

// KernelsTouching returns copies of the kernel spans that overlap
// [from, to] and touched the given allocation — the query diagnostics use
// to attribute a finding to the kernel(s) whose accesses caused it.
func (tl *Timeline) KernelsTouching(allocID int, from, to machine.Duration) []Event {
	var out []Event
	for i := range tl.events {
		ev := &tl.events[i]
		if ev.Kind != KindKernel || ev.End() < from || ev.Start > to {
			continue
		}
		for _, id := range ev.Allocs {
			if id == allocID {
				out = append(out, *ev)
				break
			}
		}
	}
	return out
}
