// Package cuda provides a CUDA-like runtime API on top of the simulated
// machine: managed and device allocations, explicit memcpys, memory advice,
// streams with asynchronous copies, kernel launches, and a simulated clock.
//
// It is the analog of the CUDA runtime functions XPlacer wraps (§III-B):
// cudaMalloc, cudaMallocManaged, cudaFree, cudaMemcpy, cudaMemAdvise, and
// kernel launches. A Tracer registered on the Context observes every
// allocation, access, transfer, and launch — exactly the hook points the
// paper's instrumentation inserts.
//
// All simulated-time state lives in the context's timeline (see
// internal/timeline): the host clock and per-stream completion times are
// owned by timeline.Clock, and every runtime operation — kernel launch,
// memcpy, prefetch, sync, allocation — is emitted as a typed, timestamped
// event. Per-element accesses never emit events: kernel accesses
// aggregate into the kernel's span, host accesses into a host-phase
// window flushed at the next runtime operation.
package cuda

import (
	"fmt"
	"io"
	"math/bits"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
)

// Tracer observes runtime events. internal/trace implements it; a nil
// tracer on the Context disables instrumentation (the "original version"
// of Table III). Element accesses arrive one by one through TraceAccess,
// or, from kernels that record a sweep with Exec.TraceRange, as one
// run-length-encoded TraceAccessRange call.
type Tracer interface {
	// TraceAccess observes one element access by dev.
	TraceAccess(dev machine.Device, a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind)
	// TraceAccessRange observes a strided element sweep as one
	// run-length-encoded record: count element accesses of size bytes by
	// dev, the k-th at addr + k*stride, with the exact per-word semantics
	// of count TraceAccess calls in ascending address order.
	TraceAccessRange(dev machine.Device, a *memsim.Alloc, addr memsim.Addr, count int, stride, size int64, kind memsim.AccessKind)
	// TraceAlloc observes an allocation (trcMalloc/trcMallocManaged).
	TraceAlloc(a *memsim.Alloc)
	// TraceFree observes a deallocation (trcFree).
	TraceFree(a *memsim.Alloc)
	// TraceTransfer observes an explicit memcpy touching [off, off+n) of a.
	// H2D is recorded as a CPU write of the range, D2H as a CPU read
	// (§III-C "Unnecessary data transfers").
	TraceTransfer(a *memsim.Alloc, dir um.TransferDir, off, n int64)
	// TraceKernelLaunch observes a kernel launch by name.
	TraceKernelLaunch(name string)
}

// Stream orders asynchronous work. Operations issued on the same stream
// execute in order; different streams may overlap — the mechanism the
// optimized Pathfinder uses to hide transfers behind compute (Fig. 11).
// A stream's completion time is a track of the context's timeline clock.
type Stream struct {
	ctx *Context
	id  int
}

// ID returns the stream's context-unique id (0 is the default stream).
func (s *Stream) ID() int { return s.id }

// avail returns the simulated time at which the stream is idle.
func (s *Stream) avail() machine.Duration { return s.ctx.tl.Clock().TrackAvail(s.id) }

// KernelRecord is the per-launch profile the kernel-launch wrapper
// collects — the paper's §III-B use case of recording "the number of page
// faults ... before and after the launch of a CUDA kernel" (CUPTI-style
// counters, without needing CUPTI). Records are a derived view over the
// timeline's kernel-span events.
type KernelRecord struct {
	// Name is the launch label; Seq the global launch index.
	Name string
	Seq  int64
	// Stream is the stream id the kernel ran on.
	Stream int
	// Start and Duration place the kernel on the simulated timeline.
	Start    machine.Duration
	Duration machine.Duration
	// Faults is the number of page faults the kernel took; MigratedBytes
	// the page traffic it caused (including evictions); PagesTouched the
	// distinct pages it accessed.
	Faults        int
	MigratedBytes int64
	PagesTouched  int
	// Stalled reports whether the fault-storm stall applied.
	Stalled bool
}

// hostWindow aggregates host-side element accesses between two emission
// points, so the per-access hot path stays event-free: one KindHostPhase
// event per window instead of one event per access.
type hostWindow struct {
	active   bool
	start    machine.Duration
	accesses int64
	faults   int
	migBytes int64
	// cost is the summed per-access host time, so the flushed event can
	// carry the placement-invariant Work residual (window duration minus
	// access costs).
	cost machine.Duration
	cap  accessCapture
}

// accessCapture accumulates one span's per-allocation, per-page access
// totals for the what-if trace (timeline.Event.Accessed). The last-entry
// cursor keeps the common sequential-stream case to one compare and two
// adds; the maps are only consulted on page or allocation transitions.
type accessCapture struct {
	accessed []timeline.AllocAccess
	byAlloc  map[int]int     // alloc ID -> index into accessed
	pages    []map[int32]int // parallel to accessed: page -> index into Pages
	lastKey  int64           // (allocID+1)<<32 | page of the cursor
	lastPA   *timeline.PageAccess
}

func (ac *accessCapture) note(allocID int, page int32, words int64, write bool) {
	key := int64(allocID+1)<<32 | int64(uint32(page))
	pa := ac.lastPA
	if pa == nil || ac.lastKey != key {
		ai, ok := ac.byAlloc[allocID]
		if !ok {
			if ac.byAlloc == nil {
				ac.byAlloc = make(map[int]int)
			}
			ai = len(ac.accessed)
			ac.byAlloc[allocID] = ai
			ac.accessed = append(ac.accessed, timeline.AllocAccess{AllocID: allocID})
			ac.pages = append(ac.pages, make(map[int32]int))
		}
		pi, ok := ac.pages[ai][page]
		if !ok {
			pi = len(ac.accessed[ai].Pages)
			ac.pages[ai][page] = pi
			ac.accessed[ai].Pages = append(ac.accessed[ai].Pages, timeline.PageAccess{Page: page})
		}
		pa = &ac.accessed[ai].Pages[pi]
		ac.lastKey = key
		ac.lastPA = pa
	}
	pa.Accesses++
	if write {
		pa.Writes += words
	} else {
		pa.Reads += words
	}
}

// prefetchState tracks one allocation placed under um.PlacePrefetch: it is
// prefetched to the GPU before any kernel launch that follows a host touch.
type prefetchState struct {
	alloc *memsim.Alloc
	dirty bool
}

// Context is one simulated process on one platform: an address space, a UM
// driver, a timeline (clock + events), and streams.
type Context struct {
	plat    *machine.Platform
	space   *memsim.Space
	drv     *um.Driver
	tracer  Tracer
	tl      *timeline.Timeline
	streams []*Stream
	host    *Exec
	kernels int64
	hostWin hostWindow

	// pageShift converts an allocation offset to the page index the UM
	// driver and the what-if capture key pages by.
	pageShift uint
	// What-if capture state (SetWhatIfCapture).
	whatif bool
	// Applied-placement state (SetPlacement).
	placements     map[string]um.Placement
	overridden     map[int]bool // alloc IDs whose placement was overridden
	prefetchPolicy []*prefetchState

	// launchHook runs after every kernel launch has been emitted — the
	// drain boundary window-driven consumers (internal/adapt) analyze at.
	// It is off the per-element hot path: one nil check per launch.
	launchHook func()
}

// NewContext creates a fresh simulated process on the platform.
func NewContext(plat *machine.Platform) (*Context, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	space := memsim.NewSpace(plat.PageSize)
	tl := timeline.New()
	drv := um.NewDriver(plat, space)
	drv.SetTimeline(tl)
	ctx := &Context{
		plat:      plat,
		space:     space,
		drv:       drv,
		tl:        tl,
		pageShift: uint(bits.TrailingZeros64(uint64(plat.PageSize))),
	}
	ctx.streams = []*Stream{{ctx: ctx, id: 0}}
	ctx.host = &Exec{ctx: ctx, dev: machine.CPU, host: true}
	return ctx, nil
}

// MustContext is NewContext that panics on error; for tests and examples
// with preset platforms.
func MustContext(plat *machine.Platform) *Context {
	ctx, err := NewContext(plat)
	if err != nil {
		panic(err)
	}
	return ctx
}

// SetTracer installs (or with nil removes) the instrumentation hook.
func (c *Context) SetTracer(t Tracer) { c.tracer = t }

// Tracer returns the installed tracer, or nil.
func (c *Context) Tracer() Tracer { return c.tracer }

// Platform returns the machine model the context runs on.
func (c *Context) Platform() *machine.Platform { return c.plat }

// Space returns the simulated address space.
func (c *Context) Space() *memsim.Space { return c.space }

// Driver returns the unified-memory driver (for statistics).
func (c *Context) Driver() *um.Driver { return c.drv }

// Timeline returns the context's event timeline.
func (c *Context) Timeline() *timeline.Timeline { return c.tl }

// Now returns the current simulated host time.
func (c *Context) Now() machine.Duration { return c.tl.Now() }

// KernelCount returns the number of kernels launched so far.
func (c *Context) KernelCount() int64 { return c.kernels }

// SetWhatIfCapture enables per-span access aggregation for the what-if
// replay engine (internal/whatif): while on, kernel spans and host-phase
// windows carry a per-allocation, per-page Accessed aggregate and host
// pure Work opens a host-phase window so it is accounted to a span. The
// per-element hot path gains no events and no driver work — aggregation
// piggybacks on the per-access driver call already made. Off by default.
func (c *Context) SetWhatIfCapture(on bool) { c.whatif = on }

// SetPlacement arranges for the next allocation created with the given
// label to be placed under policy p instead of what the program asks for —
// the application side of internal/whatif's predictions. The allocation
// kind is converted if needed (managed-family policies force Managed,
// explicit-copy forces DeviceOnly) and the policy's advice or prefetch
// schedule is issued exactly as a programmer porting the code would:
// advice right after the allocation, prefetches before kernel launches
// that follow a host touch. App-issued advice and prefetches on an
// overridden allocation are suppressed (the port removes those calls).
// Must be called before the allocation is created; PlaceObserved leaves
// the program unchanged. PlaceExplicit is only applicable to allocations
// without host element accesses (see um.PlaceExplicit).
func (c *Context) SetPlacement(label string, p um.Placement) {
	if c.placements == nil {
		c.placements = make(map[string]um.Placement)
	}
	c.placements[label] = p
}

// SetLaunchHook installs (or with nil removes) a callback invoked after
// every kernel launch's span has been emitted on the timeline — the
// kernel-launch drain boundary. The adaptive controller uses it to close
// capture windows and run incremental analysis between launches; the
// hook may issue runtime calls (advice, prefetches) but must not launch
// kernels.
func (c *Context) SetLaunchHook(hook func()) { c.launchHook = hook }

// ApplyPlacement applies placement policy p to the allocation label
// mid-run: like SetPlacement for allocations created later, and for every
// live managed allocation with that label the advice transition is issued
// immediately through the ordinary advise path (so the calls cost
// simulated time and land on the timeline like any program-issued
// advice, keeping observed-placement replay exact). The transition
// clears the policy state the previous placement relied on, then applies
// the new one:
//
//	preferred-GPU/CPU: unset read-mostly, set preferred location
//	read-mostly:       unset preferred location, set read-mostly
//	managed/observed:  unset both (back to default managed behavior)
//	prefetch:          unset both, schedule prefetch-before-launch
//
// Explicit copy is rejected: a live managed allocation cannot change its
// kind mid-run. Each applied allocation is marked overridden, so the
// program's own advice and prefetch calls on it are suppressed from then
// on, and a KindDecision instant records the change for exported traces.
func (c *Context) ApplyPlacement(label string, p um.Placement) error {
	if p == um.PlaceExplicit {
		return fmt.Errorf("cuda: ApplyPlacement(%q, %s): explicit copy is not applicable mid-run", label, p)
	}
	c.SetPlacement(label, p)
	for _, a := range c.space.Live() {
		if a.Label != label || a.Kind != memsim.Managed {
			continue
		}
		for i, ps := range c.prefetchPolicy {
			if ps.alloc == a {
				c.prefetchPolicy = append(c.prefetchPolicy[:i], c.prefetchPolicy[i+1:]...)
				break
			}
		}
		var err error
		switch p {
		case um.PlacePreferredGPU:
			err = c.transitionAdvice(a, um.AdviseUnsetReadMostly, um.AdviseSetPreferredLocation, machine.GPU)
		case um.PlacePreferredCPU:
			err = c.transitionAdvice(a, um.AdviseUnsetReadMostly, um.AdviseSetPreferredLocation, machine.CPU)
		case um.PlaceReadMostly:
			err = c.transitionAdvice(a, um.AdviseUnsetPreferredLocation, um.AdviseSetReadMostly, machine.GPU)
		case um.PlaceManaged, um.PlaceObserved, um.PlacePrefetch:
			err = c.transitionAdvice(a, um.AdviseUnsetReadMostly, um.AdviseUnsetPreferredLocation, machine.CPU)
		}
		if err != nil {
			return err
		}
		if p == um.PlacePrefetch {
			c.prefetchPolicy = append(c.prefetchPolicy, &prefetchState{alloc: a, dirty: true})
		}
		if c.overridden == nil {
			c.overridden = make(map[int]bool)
		}
		c.overridden[a.ID] = true
	}
	c.flushHostWindow()
	c.tl.Emit(timeline.Event{
		Kind:    timeline.KindDecision,
		Name:    "setPlacement",
		Track:   timeline.HostTrack,
		Start:   c.tl.Now(),
		Alloc:   label,
		AllocID: -1,
		Detail:  p.String(),
	})
	return nil
}

// transitionAdvice issues the two advice calls of one placement
// transition: clear the state the old policy held, set the new one.
func (c *Context) transitionAdvice(a *memsim.Alloc, clear, set um.Advice, dev machine.Device) error {
	if err := c.advise(a, clear, machine.CPU); err != nil {
		return err
	}
	return c.advise(a, set, dev)
}

// KernelProfile returns one record per kernel launch, derived from the
// timeline's kernel-span events. The returned slice is a fresh copy;
// mutating it cannot affect runtime state.
func (c *Context) KernelProfile() []KernelRecord {
	var out []KernelRecord
	for _, ev := range c.tl.Kernels() {
		out = append(out, KernelRecord{
			Name:          ev.Name,
			Seq:           ev.Index,
			Stream:        ev.Track,
			Start:         ev.Start,
			Duration:      ev.Dur,
			Faults:        ev.Faults,
			MigratedBytes: ev.MigratedBytes,
			PagesTouched:  ev.PagesTouched,
			Stalled:       ev.Stalled,
		})
	}
	return out
}

// WriteKernelProfile renders the collected records as a text table, or as
// CSV when csv is set — the per-kernel fault counters the paper's
// kernel-launch wrapper gathers (§III-B).
func (c *Context) WriteKernelProfile(w io.Writer, csv bool) {
	recs := c.KernelProfile()
	if csv {
		fmt.Fprintln(w, "seq,name,stream,start_ps,duration_ps,faults,migrated_bytes,pages_touched,stalled")
		for _, r := range recs {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d,%t\n",
				r.Seq, r.Name, r.Stream, int64(r.Start), int64(r.Duration),
				r.Faults, r.MigratedBytes, r.PagesTouched, r.Stalled)
		}
		return
	}
	fmt.Fprintf(w, "%5s %-36s %3s %14s %14s %7s %10s %7s %7s\n",
		"seq", "kernel", "str", "start", "duration", "faults", "migBytes", "pages", "stalled")
	for _, r := range recs {
		fmt.Fprintf(w, "%5d %-36s %3d %14s %14s %7d %10d %7d %7t\n",
			r.Seq, r.Name, r.Stream, r.Start, r.Duration,
			r.Faults, r.MigratedBytes, r.PagesTouched, r.Stalled)
	}
}

// Host returns the host execution context, through which CPU code performs
// element accesses.
func (c *Context) Host() *Exec { return c.host }

// noteHostAccess folds one host access (and its host time t) into the open
// host-phase window.
func (c *Context) noteHostAccess(cost um.Cost, t machine.Duration) {
	w := &c.hostWin
	if !w.active {
		w.active = true
		w.start = c.tl.Now()
	}
	w.accesses++
	w.faults += cost.Faults
	w.migBytes += cost.MigratedBytes
	w.cost += t
}

// flushHostWindow emits the open host-phase window (if any) as one
// aggregated event — the "per-drain emission" that keeps per-access work
// off the timeline.
func (c *Context) flushHostWindow() {
	w := &c.hostWin
	if !w.active {
		return
	}
	dur := c.tl.Now() - w.start
	c.tl.Emit(timeline.Event{
		Kind:          timeline.KindHostPhase,
		Name:          "host compute",
		Track:         timeline.HostTrack,
		Start:         w.start,
		Dur:           dur,
		Faults:        w.faults,
		MigratedBytes: w.migBytes,
		Accesses:      w.accesses,
		AllocID:       -1,
		Work:          dur - w.cost,
		Accessed:      w.cap.accessed,
		Drv:           c.drv.Window().TimelineStats(),
	})
	*w = hostWindow{}
}

// MarkDiagnostic flushes the host-phase window and places a diagnostic
// instant on the timeline — the event-spine side of a #pragma xpl
// diagnostic point.
func (c *Context) MarkDiagnostic(title string) {
	c.flushHostWindow()
	c.tl.Emit(timeline.Event{
		Kind:    timeline.KindDiagnostic,
		Name:    "diagnostic",
		Track:   timeline.HostTrack,
		Start:   c.tl.Now(),
		AllocID: -1,
		Detail:  title,
	})
}

// MallocManaged allocates unified memory (cudaMallocManaged).
func (c *Context) MallocManaged(size int64, label string) (*memsim.Alloc, error) {
	return c.alloc(size, memsim.Managed, label)
}

// Malloc allocates device-only memory (cudaMalloc).
func (c *Context) Malloc(size int64, label string) (*memsim.Alloc, error) {
	return c.alloc(size, memsim.DeviceOnly, label)
}

// HostAlloc registers plain host heap memory so the tracer can observe
// host-side accesses to it.
func (c *Context) HostAlloc(size int64, label string) (*memsim.Alloc, error) {
	return c.alloc(size, memsim.HostOnly, label)
}

func (c *Context) alloc(size int64, kind memsim.Kind, label string) (*memsim.Alloc, error) {
	place, override := c.placements[label]
	if override && place != um.PlaceObserved && kind != memsim.HostOnly {
		kind = PlacementKind(place, kind)
	} else {
		override = false
	}
	a, err := c.space.Alloc(size, kind, label)
	if err != nil {
		return nil, err
	}
	c.drv.Register(a)
	if c.tracer != nil {
		c.tracer.TraceAlloc(a)
	}
	c.flushHostWindow()
	c.tl.Emit(timeline.Event{
		Kind:    timeline.KindAlloc,
		Name:    allocEventName(kind),
		Track:   timeline.HostTrack,
		Start:   c.tl.Now(),
		Alloc:   a.Label,
		AllocID: a.ID,
		Bytes:   size,
	})
	// A small fixed driver cost per allocation.
	c.tl.Clock().Advance(2 * machine.Microsecond)
	if override {
		if c.overridden == nil {
			c.overridden = make(map[int]bool)
		}
		c.overridden[a.ID] = true
		c.applyPlacement(a, place)
	}
	return a, nil
}

// PlacementKind returns the allocation kind an applied placement uses —
// shared with the what-if replayer so predicted and applied runs convert
// allocations identically.
func PlacementKind(p um.Placement, kind memsim.Kind) memsim.Kind {
	switch p {
	case um.PlaceExplicit:
		return memsim.DeviceOnly
	case um.PlaceManaged, um.PlacePreferredGPU, um.PlacePreferredCPU,
		um.PlaceReadMostly, um.PlacePrefetch:
		return memsim.Managed
	}
	return kind
}

// applyPlacement issues the runtime calls a programmer applying the
// placement would add right after the allocation.
func (c *Context) applyPlacement(a *memsim.Alloc, p um.Placement) {
	switch p {
	case um.PlacePreferredGPU:
		c.advise(a, um.AdviseSetPreferredLocation, machine.GPU)
	case um.PlacePreferredCPU:
		c.advise(a, um.AdviseSetPreferredLocation, machine.CPU)
	case um.PlaceReadMostly:
		c.advise(a, um.AdviseSetReadMostly, machine.GPU)
	case um.PlacePrefetch:
		c.prefetchPolicy = append(c.prefetchPolicy, &prefetchState{alloc: a, dirty: true})
	}
}

// markPrefetchDirty flags a prefetch-policy allocation the host touched
// since its last prefetch or full upload.
func (c *Context) markPrefetchDirty(id int) {
	for _, ps := range c.prefetchPolicy {
		if ps.alloc.ID == id {
			ps.dirty = true
			return
		}
	}
}

// clearPrefetchDirty marks a prefetch-policy allocation clean (after a
// whole-allocation upload made its pages GPU-resident).
func (c *Context) clearPrefetchDirty(id int) {
	for _, ps := range c.prefetchPolicy {
		if ps.alloc.ID == id {
			ps.dirty = false
			return
		}
	}
}

func allocEventName(k memsim.Kind) string {
	switch k {
	case memsim.Managed:
		return "mallocManaged"
	case memsim.DeviceOnly:
		return "malloc"
	default:
		return "hostAlloc"
	}
}

// Free releases an allocation (cudaFree). The shadow memory of the tracer
// survives until the next diagnostic per the paper's delayed-free rule.
func (c *Context) Free(a *memsim.Alloc) error {
	if c.tracer != nil {
		c.tracer.TraceFree(a)
	}
	for i, ps := range c.prefetchPolicy {
		if ps.alloc == a {
			c.prefetchPolicy = append(c.prefetchPolicy[:i], c.prefetchPolicy[i+1:]...)
			break
		}
	}
	c.drv.Unregister(a)
	c.flushHostWindow()
	c.tl.Emit(timeline.Event{
		Kind:    timeline.KindFree,
		Name:    "free",
		Track:   timeline.HostTrack,
		Start:   c.tl.Now(),
		Alloc:   a.Label,
		AllocID: a.ID,
		Bytes:   a.Size,
	})
	c.tl.Clock().Advance(1 * machine.Microsecond)
	return c.space.Free(a)
}

// Advise applies memory advice to a whole allocation (cudaMemAdvise over
// the full range). The advice event itself is emitted by the UM driver.
// On an allocation whose placement was overridden (SetPlacement) the call
// is a no-op: the applied port removes the program's own advice.
func (c *Context) Advise(a *memsim.Alloc, adv um.Advice, dev machine.Device) error {
	if c.overridden[a.ID] {
		return nil
	}
	return c.advise(a, adv, dev)
}

func (c *Context) advise(a *memsim.Alloc, adv um.Advice, dev machine.Device) error {
	c.flushHostWindow()
	c.tl.Clock().Advance(1 * machine.Microsecond)
	return c.drv.Advise(a, adv, dev)
}

// AdviseRange applies memory advice to [off, off+n) of an allocation, page
// granular like the real cudaMemAdvise(ptr, size, ...). No-op on
// placement-overridden allocations, like Advise.
func (c *Context) AdviseRange(a *memsim.Alloc, off, n int64, adv um.Advice, dev machine.Device) error {
	if c.overridden[a.ID] {
		return nil
	}
	c.flushHostWindow()
	c.tl.Clock().Advance(1 * machine.Microsecond)
	return c.drv.AdviseRange(a, off, n, adv, dev)
}

// Prefetch synchronously moves a managed allocation to dev
// (cudaMemPrefetchAsync + sync). The prefetch span is emitted by the UM
// driver. No-op on placement-overridden allocations, like Advise.
func (c *Context) Prefetch(a *memsim.Alloc, dev machine.Device) {
	if c.overridden[a.ID] {
		return
	}
	c.prefetchNow(a, dev)
}

func (c *Context) prefetchNow(a *memsim.Alloc, dev machine.Device) {
	c.flushHostWindow()
	c.tl.Clock().Advance(c.drv.Prefetch(a, dev))
}

// NewStream creates an additional stream.
func (c *Context) NewStream() *Stream {
	id := c.tl.Clock().NewTrack()
	s := &Stream{ctx: c, id: id}
	c.streams = append(c.streams, s)
	return s
}

// Event marks a point on a stream's timeline (cudaEvent). Record it on a
// stream, then make another stream wait for it (WaitEvent) or ask for the
// elapsed time between two events — device-side cross-stream dependencies
// without host synchronization.
type Event struct {
	recorded bool
	when     machine.Duration
}

// NewEvent creates an unrecorded event.
func (c *Context) NewEvent() *Event { return &Event{} }

// Record captures the stream's current completion time in the event
// (cudaEventRecord).
func (c *Context) Record(ev *Event, s *Stream) {
	if s == nil {
		s = c.streams[0]
	}
	ev.recorded = true
	ev.when = maxDur(c.tl.Now(), s.avail())
	c.tl.Clock().Advance(machine.Microsecond) // issue overhead
}

// WaitEvent makes subsequent work on s wait until the event's recorded
// point has completed (cudaStreamWaitEvent). Waiting on an unrecorded
// event is a no-op, as in CUDA.
func (c *Context) WaitEvent(s *Stream, ev *Event) {
	if s == nil {
		s = c.streams[0]
	}
	if ev.recorded {
		c.tl.Clock().DelayTrack(s.id, ev.when)
	}
	c.tl.Clock().Advance(machine.Microsecond)
}

// EventSynchronize blocks the host until the event's point has completed.
func (c *Context) EventSynchronize(ev *Event) {
	c.flushHostWindow()
	if ev.recorded {
		c.tl.Clock().AdvanceTo(ev.when)
	}
	c.tl.Clock().Advance(c.plat.StreamSync)
	c.emitSync("eventSynchronize", timeline.WaitsAll)
}

// ElapsedTime returns the simulated time between two recorded events
// (cudaEventElapsedTime). It returns 0 if either event is unrecorded.
func (c *Context) ElapsedTime(start, end *Event) machine.Duration {
	if !start.recorded || !end.recorded {
		return 0
	}
	return end.when - start.when
}

// DefaultStream returns stream 0.
func (c *Context) DefaultStream() *Stream { return c.streams[0] }

// emitTransfer places one explicit-memcpy span on the timeline.
func (c *Context) emitTransfer(a *memsim.Alloc, dir um.TransferDir, track int, start, dur machine.Duration, off, n int64, async bool) {
	name := "memcpyH2D"
	if dir == um.DeviceToHost {
		name = "memcpyD2H"
	}
	c.tl.Emit(timeline.Event{
		Kind:    timeline.KindTransfer,
		Name:    name,
		Track:   track,
		Start:   start,
		Dur:     dur,
		Alloc:   a.Label,
		AllocID: a.ID,
		Bytes:   n,
		Off:     off,
		Async:   async,
		Detail:  dir.String(),
		Drv:     c.drv.Window().TimelineStats(),
	})
}

// MemcpyH2D copies len(src) bytes from host memory into a device or
// managed allocation at byte offset off, synchronously (cudaMemcpy
// HostToDevice).
func (c *Context) MemcpyH2D(dst *memsim.Alloc, off int64, src []byte) {
	c.flushHostWindow()
	c.memcpyH2D(dst, off, src)
	n := int64(len(src))
	dur := c.drv.Transfer(dst, um.HostToDevice, off, n)
	start := c.tl.Now()
	c.tl.Clock().Advance(dur)
	c.emitTransfer(dst, um.HostToDevice, timeline.HostTrack, start, dur, off, n, false)
}

// MemcpyH2DAsync is MemcpyH2D queued on a stream; the host does not wait.
func (c *Context) MemcpyH2DAsync(s *Stream, dst *memsim.Alloc, off int64, src []byte) {
	c.flushHostWindow()
	c.memcpyH2D(dst, off, src)
	n := int64(len(src))
	dur := c.drv.Transfer(dst, um.HostToDevice, off, n)
	start := c.tl.Clock().Reserve(s.id, dur)
	c.tl.Clock().Advance(machine.Microsecond) // issue overhead
	c.emitTransfer(dst, um.HostToDevice, s.id, start, dur, off, n, true)
}

func (c *Context) memcpyH2D(dst *memsim.Alloc, off int64, src []byte) {
	n := int64(len(src))
	if off < 0 || off+n > dst.Size {
		panic(fmt.Sprintf("cuda: MemcpyH2D [%d,%d) out of bounds of %s", off, off+n, dst))
	}
	copy(dst.Data()[off:off+n], src)
	if c.tracer != nil {
		c.tracer.TraceTransfer(dst, um.HostToDevice, off, n)
	}
	if off == 0 && n == dst.Size {
		c.clearPrefetchDirty(dst.ID)
	}
}

// MemcpyD2H copies len(dst) bytes from a device or managed allocation at
// byte offset off into host memory, synchronously.
func (c *Context) MemcpyD2H(dst []byte, src *memsim.Alloc, off int64) {
	n := int64(len(dst))
	if off < 0 || off+n > src.Size {
		panic(fmt.Sprintf("cuda: MemcpyD2H [%d,%d) out of bounds of %s", off, off+n, src))
	}
	c.flushHostWindow()
	// A synchronous D2H waits for outstanding device work first.
	c.tl.Clock().WaitAll()
	copy(dst, src.Data()[off:off+n])
	if c.tracer != nil {
		c.tracer.TraceTransfer(src, um.DeviceToHost, off, n)
	}
	dur := c.drv.Transfer(src, um.DeviceToHost, off, n)
	start := c.tl.Now()
	c.tl.Clock().Advance(dur)
	c.emitTransfer(src, um.DeviceToHost, timeline.HostTrack, start, dur, off, n, false)
}

// Launch runs a kernel on a stream. The body executes immediately (the
// simulation is sequential) but its simulated duration is placed on the
// stream's timeline: launch overhead + aggregate local access time divided
// by GPU parallelism + remote access time divided by link concurrency +
// serial driver time (faults, migrations). The launch emits one
// kernel-span event carrying the aggregated per-kernel costs and the set
// of allocations the kernel touched.
func (c *Context) Launch(s *Stream, name string, body func(e *Exec)) {
	if s == nil {
		s = c.streams[0]
	}
	if c.tracer != nil {
		c.tracer.TraceKernelLaunch(name)
	}
	c.flushHostWindow()
	for _, ps := range c.prefetchPolicy {
		if ps.dirty {
			c.prefetchNow(ps.alloc, machine.GPU)
			ps.dirty = false
		}
	}
	c.kernels++
	e := &Exec{ctx: c, dev: machine.GPU}
	body(e)
	e.stampPatterns(c.plat)
	dur := c.plat.KernelLaunch + e.kernelDuration(c.plat)
	start := c.tl.Clock().Reserve(s.id, dur)
	c.tl.Clock().Advance(machine.Microsecond) // async launch issue overhead
	c.tl.Emit(timeline.Event{
		Kind:          timeline.KindKernel,
		Name:          name,
		Track:         s.id,
		Start:         start,
		Dur:           dur,
		Index:         c.kernels - 1,
		Faults:        e.faults,
		MigratedBytes: e.migBytes,
		PagesTouched:  e.pageCount,
		Stalled:       e.faults > 0 && c.plat.FaultStallPct > 0,
		Allocs:        e.touchedAllocs(),
		AllocID:       -1,
		Work:          e.work,
		Accessed:      e.cap.accessed,
		Drv:           c.drv.Window().TimelineStats(),
	})
	if c.launchHook != nil {
		c.launchHook()
	}
}

// LaunchSync is Launch followed by Synchronize, for the common pattern of
// benchmarks that launch and immediately wait.
func (c *Context) LaunchSync(name string, body func(e *Exec)) {
	c.Launch(nil, name, body)
	c.Synchronize()
}

// emitSync places a host synchronization instant on the timeline. waits
// records what the host waited for (a stream id, or timeline.WaitsAll) so
// the what-if replay can reproduce the wait.
func (c *Context) emitSync(name string, waits int) {
	c.tl.Emit(timeline.Event{
		Kind:    timeline.KindSync,
		Name:    name,
		Track:   timeline.HostTrack,
		Start:   c.tl.Now(),
		AllocID: -1,
		Waits:   waits,
	})
}

// StreamSynchronize blocks the host until the stream is idle.
func (c *Context) StreamSynchronize(s *Stream) {
	c.flushHostWindow()
	c.tl.Clock().WaitTrack(s.id)
	c.tl.Clock().Advance(c.plat.StreamSync)
	c.emitSync("streamSynchronize", s.id)
}

// Synchronize blocks the host until all streams are idle
// (cudaDeviceSynchronize).
func (c *Context) Synchronize() {
	c.flushHostWindow()
	c.tl.Clock().WaitAll()
	c.tl.Clock().Advance(c.plat.StreamSync)
	c.emitSync("deviceSynchronize", timeline.WaitsAll)
}

// Exec is an execution context: host code or one kernel. Views perform
// element accesses through it; it charges the cost model and calls the
// tracer.
type Exec struct {
	ctx  *Context
	dev  machine.Device
	host bool

	serial machine.Duration
	// allocs accumulates per-allocation state, indexed by alloc ID: the
	// local/remote memory time the kernel spent on the allocation (kept
	// per allocation so the coalescing multiplier can scale each
	// allocation's memory time by its own classified pattern), the
	// distinct-page short circuit, and the access-pattern tracker.
	allocs []allocState
	// Distinct-page tracking: each page a kernel touches costs
	// PageTouchCost (GPU TLB misses / page-table walks). The per-
	// allocation lastPage short circuit keeps sequential streams cheap.
	touched   map[memsim.Addr]struct{}
	pageCount int
	// Optional GPU L2 model (§VI future work): lines seen by this kernel.
	// Enabled only when the platform sets GPUL2Bytes.
	l2lines map[memsim.Addr]struct{}
	l2hits  int64
	// faults and migBytes batch into fault groups / pipelined transfers at
	// the end of the kernel.
	faults   int
	migBytes int64
	// Compute time added explicitly via Work, divided by parallelism for
	// kernels.
	work machine.Duration
	// cap aggregates per-page access totals while what-if capture is on.
	cap accessCapture
}

// allocState is one allocation's per-kernel accumulation: memory time by
// residency, the last page touched (page number + 1, 0 = none yet), and
// the access-pattern tracker the coalescing multiplier derives from.
type allocState struct {
	lastPage      memsim.Addr
	local, remote machine.Duration
	pat           pattern.Tracker
}

// allocState returns (growing the slice as needed) the per-allocation
// state for an alloc ID.
func (e *Exec) allocState(id int) *allocState {
	for id >= len(e.allocs) {
		e.allocs = append(e.allocs, allocState{})
	}
	return &e.allocs[id]
}

// Device returns the device this execution context runs on.
func (e *Exec) Device() machine.Device { return e.dev }

// Access implements memsim.Accessor.
func (e *Exec) Access(a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	e.access(a, addr, size, kind, true)
}

// quiet adapts an Exec into an accessor that charges the cost model —
// identically to Access, element by element, in program order — without
// calling the tracer. Kernels whose sweep was already recorded through
// TraceRange use it for the per-element data accesses, so range
// compaction changes recording cost only, never simulated time.
type quiet struct{ e *Exec }

func (q quiet) Access(a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	q.e.access(a, addr, size, kind, false)
}

// NoTrace returns the untraced pricing view of this execution context;
// see TraceRange for the intended pairing.
func (e *Exec) NoTrace() memsim.Accessor { return quiet{e} }

// TraceRange records a strided element sweep — count elements of size
// bytes in a, the k-th at byte offset off + k*stride — with the tracer
// only; the cost model is not charged. Callers pair it with per-element
// accesses through NoTrace(), splitting the two jobs Access does at once:
// the trace collapses to one run-length-encoded record while pricing
// keeps its exact per-element order.
func (e *Exec) TraceRange(kind memsim.AccessKind, a *memsim.Alloc, off int64, count int, stride, size int64) {
	t := e.ctx.tracer
	if t == nil || count <= 0 {
		return
	}
	t.TraceAccessRange(e.dev, a, a.Base+memsim.Addr(off), count, stride, size, kind)
}

// access is the shared body of Access and the NoTrace view.
func (e *Exec) access(a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind, traced bool) {
	if t := e.ctx.tracer; traced && t != nil {
		t.TraceAccess(e.dev, a, addr, size, kind)
	}
	// One access through the UM page state machine, counted the way the
	// what-if capture counts it: a read-modify-write is a write. Sizes
	// are positive, so a shift replaces the signed division by 4, and
	// masking the page shift spares the compiler's oversized-shift
	// check: this runs once per simulated access.
	page := int32(int64(addr-a.Base) >> (e.ctx.pageShift & 63))
	words := (size + 3) >> 2
	write := kind != memsim.Read
	reads, writes := words, int64(0)
	if write {
		reads, writes = 0, words
	}
	cost := e.ctx.drv.Access(e.dev, a, page, reads, writes, 1)
	if e.host {
		// Host code advances the host clock directly; every cost component
		// serializes (host faults are serviced one at a time). The access
		// aggregates into the open host-phase window — no per-access event.
		if e.ctx.prefetchPolicy != nil {
			e.ctx.markPrefetchDirty(a.ID)
		}
		t := cost.HostTime(e.ctx.plat)
		e.ctx.noteHostAccess(cost, t)
		if e.ctx.whatif {
			e.ctx.hostWin.cap.note(a.ID, page, words, write)
		}
		e.ctx.tl.Clock().Advance(t)
		return
	}
	st := e.allocState(a.ID)
	st.local += cost.Local
	st.remote += cost.Remote
	e.serial += cost.Serial
	e.faults += cost.Faults
	e.migBytes += cost.MigratedBytes
	e.notePage(st, addr)
	st.pat.Note(addr, size)
	if e.ctx.whatif {
		e.cap.note(a.ID, page, words, write)
	}
	if e.ctx.plat.GPUL2Bytes > 0 && cost.Remote == 0 && cost.Faults == 0 {
		e.noteLine(st, addr, size)
	}
}

// noteLine models the optional GPU L2 (§VI): a repeat access to a line the
// kernel already touched — while the kernel's line footprint still fits in
// the cache — is re-priced from GPUAccess to GPUL2Hit.
func (e *Exec) noteLine(st *allocState, addr memsim.Addr, size int64) {
	line := e.ctx.plat.GPUL2Line
	if line <= 0 {
		line = 128
	}
	if e.l2lines == nil {
		e.l2lines = make(map[memsim.Addr]struct{})
	}
	ln := addr / memsim.Addr(line)
	if _, ok := e.l2lines[ln]; ok {
		if int64(len(e.l2lines))*line <= e.ctx.plat.GPUL2Bytes {
			// Hit: refund the local DRAM cost, charge the hit cost.
			words := machine.Duration((size + 3) / 4)
			st.local -= e.ctx.plat.GPUAccess * words
			st.local += e.ctx.plat.GPUL2Hit * words
			e.l2hits++
		}
		return
	}
	e.l2lines[ln] = struct{}{}
}

// notePage records the page of an access for the per-kernel distinct-page
// cost. The per-allocation last-page cache keeps sequential streams off
// the map.
func (e *Exec) notePage(st *allocState, addr memsim.Addr) {
	pg := addr/memsim.Addr(e.ctx.plat.PageSize) + 1
	if st.lastPage == pg {
		return
	}
	st.lastPage = pg
	if e.touched == nil {
		e.touched = make(map[memsim.Addr]struct{})
	}
	if _, ok := e.touched[pg]; !ok {
		e.touched[pg] = struct{}{}
		e.pageCount++
	}
}

// touchedAllocs returns the IDs of the allocations this kernel accessed,
// derived from the per-allocation last-page cache — the per-kernel
// aggregate that lets diagnostics attribute findings to kernel spans
// without any per-access bookkeeping beyond what the page-cost model
// already pays.
func (e *Exec) touchedAllocs() []int {
	var out []int
	for id := range e.allocs {
		if e.allocs[id].lastPage != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Work charges d of pure compute time (arithmetic between memory accesses).
// For kernels it is divided by the GPU parallelism like local access time.
// Under what-if capture, host Work opens the host-phase window so pure
// compute between accesses is accounted to a span (it flushes as part of
// the window's Work residual); without capture the clock advances exactly
// as before.
func (e *Exec) Work(d machine.Duration) {
	if e.host {
		if e.ctx.whatif {
			w := &e.ctx.hostWin
			if !w.active {
				w.active = true
				w.start = e.ctx.tl.Now()
			}
		}
		e.ctx.tl.Clock().Advance(d)
		return
	}
	e.work += d
}

// KernelCost is one kernel's aggregate cost in the pre-division form Exec
// accumulates during the launch. The what-if replay engine rebuilds it
// from a captured trace and folds it through the same formula a live
// launch uses (FoldKernelCost), so replayed and live kernels price
// identically.
type KernelCost struct {
	Local, Remote, Serial machine.Duration
	Work                  machine.Duration
	Faults                int
	MigratedBytes         int64
	PagesTouched          int
}

// FoldKernelCost folds an aggregate kernel cost into the kernel's
// simulated duration (excluding KernelLaunch overhead): local plus compute
// time divided by thread parallelism (stretched by the fault-storm stall
// when the kernel faulted), remote memory time divided by the link
// concurrency, one PageTouchCost per distinct page touched, fault latency
// batched into page fault groups, migrations pipelined at link bandwidth,
// and serial driver time undivided.
func FoldKernelCost(p *machine.Platform, k KernelCost) machine.Duration {
	par := machine.Duration(p.GPUParallelism)
	rc := machine.Duration(p.RemoteConcurrency)
	fc := machine.Duration(p.FaultConcurrency)
	compute := (k.Local + k.Work) / par
	if k.Faults > 0 && p.FaultStallPct > 0 {
		// A faulting kernel loses latency hiding (fault-storm stall).
		compute = compute * machine.Duration(100+p.FaultStallPct) / 100
	}
	d := compute + k.Remote/rc + k.Serial
	d += machine.Duration(k.PagesTouched) * p.PageTouchCost
	d += machine.Duration(k.Faults) * p.FaultService / fc
	if k.MigratedBytes > 0 {
		d += p.TransferTime(k.MigratedBytes)
	}
	return d
}

// ScaleCoalesce inflates a span's per-allocation memory time by its
// classified coalescing penalty: local and remote time grow by pct
// percent, in the exact integer arithmetic both the live launch and the
// what-if replay use, so observed-placement replay stays bit-exact.
func ScaleCoalesce(d machine.Duration, pct int) machine.Duration {
	if pct <= 0 || d == 0 {
		return d
	}
	return d * machine.Duration(100+pct) / 100
}

// kernelDuration folds the accumulated costs into the kernel's simulated
// duration via FoldKernelCost. Each allocation's local and remote memory
// time is first scaled by that allocation's coalescing penalty — the
// per-(kernel, allocation) multiplier derived from its classified access
// pattern. With CoalescePenaltyPct == 0 the fold degenerates to the plain
// sum of per-allocation buckets.
func (e *Exec) kernelDuration(p *machine.Platform) machine.Duration {
	k := KernelCost{
		Serial: e.serial, Work: e.work,
		Faults: e.faults, MigratedBytes: e.migBytes, PagesTouched: e.pageCount,
	}
	for i := range e.allocs {
		st := &e.allocs[i]
		if st.local == 0 && st.remote == 0 {
			continue
		}
		pct := st.pat.Classify().PenaltyPct(p.CoalescePenaltyPct)
		k.Local += ScaleCoalesce(st.local, pct)
		k.Remote += ScaleCoalesce(st.remote, pct)
	}
	return FoldKernelCost(p, k)
}

// stampPatterns attaches each accessed allocation's classified pattern —
// class, dominant stride, and the coalescing penalty kernelDuration will
// charge — to the what-if capture aggregate, so candidate replays price
// coalescing from the captured multiplier instead of re-deriving it.
func (e *Exec) stampPatterns(p *machine.Platform) {
	for i := range e.cap.accessed {
		aa := &e.cap.accessed[i]
		if aa.AllocID < 0 || aa.AllocID >= len(e.allocs) {
			continue
		}
		r := e.allocs[aa.AllocID].pat.Classify()
		aa.Pattern = timeline.Pattern{
			Class:       r.Class.String(),
			StrideBytes: r.Stride,
			PenaltyPct:  r.PenaltyPct(p.CoalescePenaltyPct),
		}
	}
}

func maxDur(a, b machine.Duration) machine.Duration {
	if a > b {
		return a
	}
	return b
}
