package whatif

import (
	"fmt"
	"strings"

	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
)

// Outcome is the result of one trace replay.
type Outcome struct {
	// HostEnd is the replayed host clock after the last event — the value
	// that equals the live run's Context.Now() when replaying the observed
	// placement (the determinism property tested in replay_test.go).
	HostEnd machine.Duration
	// Total is the end of the replayed run including device work still
	// queued on stream tracks — the quantity candidate placements are
	// ranked by.
	Total machine.Duration
	// Stats is the replay driver's cumulative activity, comparable
	// per-fault-class with the live driver's under the observed placement.
	Stats um.Stats
}

// replayAlloc is the replay-side state of one traced allocation.
type replayAlloc struct {
	a     *memsim.Alloc
	place um.Placement
	// dirty marks a prefetch-policy allocation the host touched since its
	// last prefetch or full upload (mirrors cuda.prefetchState).
	dirty bool
	// hostDirty / gpuDirty track the explicit-copy port's mirror state:
	// which side modified the data since the last inserted copy.
	hostDirty, gpuDirty bool
}

type replayer struct {
	plat   *machine.Platform
	drv    *um.Driver
	space  *memsim.Space
	clock  *timeline.Clock
	assign map[int]um.Placement
	allocs map[int]*replayAlloc
	// prefetchOrder lists prefetch-policy allocations in creation order so
	// launch-time prefetch insertion replays deterministically.
	prefetchOrder []*replayAlloc
}

// Replay re-simulates a captured event trace (recorded with
// cuda.Context.SetWhatIfCapture enabled) on plat under the given placement
// assignment — alloc ID to placement, with missing IDs keeping
// um.PlaceObserved. It rebuilds the live run's clock choreography
// operation by operation and re-prices every span's page-access aggregate
// through a fresh um.Driver, so an all-observed replay reproduces the live
// run's host clock and per-fault-class driver statistics exactly (see the
// package documentation for the caveats). Under a non-observed placement
// it mirrors what cuda.Context.SetPlacement does to an applied run:
// allocation kinds convert, policy advice is issued after the allocation,
// app-issued advice and prefetches on the allocation are dropped, and
// prefetch-policy allocations are prefetched before kernel launches that
// follow a host touch.
func Replay(events []timeline.Event, plat *machine.Platform, assign map[int]um.Placement) (Outcome, error) {
	r := newReplayer(plat, assign)
	if err := r.feed(events); err != nil {
		return Outcome{}, err
	}
	return r.outcome(), nil
}

// newReplayer builds a fresh replay state for one placement assignment.
// The incremental engine keeps one replayer per candidate alive across
// windows and feeds each window's events as they arrive; Replay is the
// whole-trace wrapper over the same state machine.
func newReplayer(plat *machine.Platform, assign map[int]um.Placement) *replayer {
	space := memsim.NewSpace(plat.PageSize)
	return &replayer{
		plat:   plat,
		drv:    um.NewDriver(plat, space),
		space:  space,
		clock:  timeline.NewClock(),
		assign: assign,
		allocs: make(map[int]*replayAlloc),
	}
}

// feed replays a consecutive slice of the captured event stream, carrying
// all simulator state across calls. Events must be fed in emission order
// without gaps; the error wrapping matches Replay's exactly, so feeding a
// trace in windows fails identically to replaying it whole.
func (r *replayer) feed(events []timeline.Event) error {
	for i := range events {
		if err := r.event(&events[i]); err != nil {
			return fmt.Errorf("whatif: event %d (%s %q): %w",
				events[i].Seq, events[i].Kind, events[i].Name, err)
		}
	}
	return nil
}

// outcome snapshots the replay totals at the current feed position. It
// does not consume state: feeding more events and snapshotting again
// yields the totals of the longer prefix.
func (r *replayer) outcome() Outcome {
	out := Outcome{HostEnd: r.clock.Now(), Stats: r.drv.Stats()}
	out.Total = out.HostEnd
	for t := 0; t < r.clock.Tracks(); t++ {
		if a := r.clock.TrackAvail(t); a > out.Total {
			out.Total = a
		}
	}
	return out
}

func (r *replayer) event(ev *timeline.Event) error {
	switch ev.Kind {
	case timeline.KindAlloc:
		return r.allocEvent(ev)
	case timeline.KindFree:
		return r.freeEvent(ev)
	case timeline.KindAdvice:
		return r.adviceEvent(ev)
	case timeline.KindPrefetch:
		return r.prefetchEvent(ev)
	case timeline.KindTransfer:
		return r.transferEvent(ev)
	case timeline.KindSync:
		r.syncEvent(ev)
	case timeline.KindHostPhase:
		return r.hostPhaseEvent(ev)
	case timeline.KindKernel:
		return r.kernelEvent(ev)
	case timeline.KindDiagnostic:
		// Diagnostic marks carry no simulated-time effect.
	}
	return nil
}

func (r *replayer) allocEvent(ev *timeline.Event) error {
	kind, err := allocKind(ev.Name)
	if err != nil {
		return err
	}
	place := r.assign[ev.AllocID]
	rkind := kind
	if place != um.PlaceObserved && kind != memsim.HostOnly {
		rkind = cuda.PlacementKind(place, kind)
	} else {
		place = um.PlaceObserved
	}
	a, err := r.space.Alloc(ev.Bytes, rkind, ev.Alloc)
	if err != nil {
		return err
	}
	if a.ID != ev.AllocID {
		return fmt.Errorf("replayed alloc ID %d != traced ID %d (incomplete trace?)", a.ID, ev.AllocID)
	}
	r.drv.Register(a)
	r.clock.Advance(2 * machine.Microsecond)
	ra := &replayAlloc{a: a, place: place}
	r.allocs[a.ID] = ra
	// Mirror cuda.Context.applyPlacement: the applied port issues the
	// policy's advice right after the allocation.
	switch place {
	case um.PlacePreferredGPU:
		return r.adviseNow(a, um.AdviseSetPreferredLocation, machine.GPU)
	case um.PlacePreferredCPU:
		return r.adviseNow(a, um.AdviseSetPreferredLocation, machine.CPU)
	case um.PlaceReadMostly:
		return r.adviseNow(a, um.AdviseSetReadMostly, machine.GPU)
	case um.PlacePrefetch:
		ra.dirty = true
		r.prefetchOrder = append(r.prefetchOrder, ra)
	}
	return nil
}

func (r *replayer) adviseNow(a *memsim.Alloc, adv um.Advice, dev machine.Device) error {
	r.clock.Advance(machine.Microsecond)
	return r.drv.Advise(a, adv, dev)
}

func (r *replayer) freeEvent(ev *timeline.Event) error {
	ra := r.allocs[ev.AllocID]
	if ra == nil {
		return fmt.Errorf("free of unknown allocation %d", ev.AllocID)
	}
	for i, ps := range r.prefetchOrder {
		if ps == ra {
			r.prefetchOrder = append(r.prefetchOrder[:i], r.prefetchOrder[i+1:]...)
			break
		}
	}
	r.drv.Unregister(ra.a)
	r.clock.Advance(machine.Microsecond)
	delete(r.allocs, ev.AllocID)
	return r.space.Free(ra.a)
}

func (r *replayer) adviceEvent(ev *timeline.Event) error {
	ra := r.allocs[ev.AllocID]
	if ra == nil || ra.place != um.PlaceObserved {
		// The applied port removes the program's own advice calls on
		// placement-overridden allocations (cuda.Context.Advise no-ops).
		return nil
	}
	adv, err := um.AdviceByName(ev.Name)
	if err != nil {
		return err
	}
	dev := deviceOf(ev.Detail)
	r.clock.Advance(machine.Microsecond)
	if ev.Off >= 0 {
		return r.drv.AdviseRange(ra.a, ev.Off, ev.Bytes, adv, dev)
	}
	return r.drv.Advise(ra.a, adv, dev)
}

func (r *replayer) prefetchEvent(ev *timeline.Event) error {
	ra := r.allocs[ev.AllocID]
	if ra == nil || ra.place != um.PlaceObserved {
		return nil // dropped like app-issued advice
	}
	r.clock.Advance(r.drv.Prefetch(ra.a, deviceOf(ev.Detail)))
	return nil
}

func (r *replayer) transferEvent(ev *timeline.Event) error {
	ra := r.allocs[ev.AllocID]
	if ra == nil {
		return fmt.Errorf("transfer on unknown allocation %d", ev.AllocID)
	}
	dir := um.HostToDevice
	if ev.Name == "memcpyD2H" {
		dir = um.DeviceToHost
	}
	if dir == um.DeviceToHost && !ev.Async {
		// A synchronous D2H waits for outstanding device work first.
		r.clock.WaitAll()
	}
	dur := r.drv.Transfer(ra.a, dir, ev.Off, ev.Bytes)
	if ev.Async {
		r.growTracks(ev.Track)
		r.clock.Reserve(ev.Track, dur)
		r.clock.Advance(machine.Microsecond) // issue overhead
	} else {
		r.clock.Advance(dur)
	}
	if dir == um.HostToDevice && ev.Off == 0 && ev.Bytes == ra.a.Size {
		ra.dirty = false // a full upload makes a prefetch redundant
	}
	return nil
}

func (r *replayer) syncEvent(ev *timeline.Event) {
	switch {
	case ev.Waits == timeline.WaitsAll:
		r.clock.WaitAll()
	case ev.Waits >= 0:
		r.growTracks(ev.Waits)
		r.clock.WaitTrack(ev.Waits)
	}
	r.clock.Advance(r.plat.StreamSync)
}

// hostPhaseEvent re-prices one aggregated window of host element accesses.
// The span's placement-invariant Work residual is carried over unchanged;
// the access costs are re-priced per page under the replay placements.
func (r *replayer) hostPhaseEvent(ev *timeline.Event) error {
	if ev.Accessed == nil && ev.Accesses > 0 {
		return fmt.Errorf("host phase with %d accesses but no capture (run with SetWhatIfCapture)", ev.Accesses)
	}
	// Explicit-copy downloads first: the port inserts a D2H memcpy before
	// host code reads data the GPU wrote.
	for _, aa := range ev.Accessed {
		ra := r.allocs[aa.AllocID]
		if ra == nil || ra.place != um.PlaceExplicit || !ra.gpuDirty || reads(aa) == 0 {
			continue
		}
		r.clock.WaitAll()
		r.clock.Advance(r.drv.Transfer(ra.a, um.DeviceToHost, 0, ra.a.Size))
		ra.gpuDirty = false
	}
	var total machine.Duration
	for _, aa := range ev.Accessed {
		ra := r.allocs[aa.AllocID]
		if ra == nil {
			return fmt.Errorf("host access to unknown allocation %d", aa.AllocID)
		}
		if ra.place == um.PlaceExplicit {
			// Host code works on a plain host mirror.
			var words int64
			for _, pa := range aa.Pages {
				words += pa.Reads + pa.Writes
			}
			total += r.plat.AccessTime(machine.CPU) * machine.Duration(words)
			if writes(aa) > 0 {
				ra.hostDirty = true
			}
			continue
		}
		for _, pa := range aa.Pages {
			c := r.drv.Access(machine.CPU, ra.a, pa.Page, pa.Reads, pa.Writes, pa.Accesses)
			total += c.HostTime(r.plat)
		}
		if ra.place == um.PlacePrefetch {
			ra.dirty = true
		}
	}
	r.clock.Advance(total + ev.Work)
	return nil
}

// kernelEvent re-prices one kernel span: policy-inserted prefetches and
// uploads first (what the applied port issues before the launch), then the
// span's page-access aggregate through the driver, folded with the same
// formula a live launch uses.
func (r *replayer) kernelEvent(ev *timeline.Event) error {
	if ev.Accessed == nil && ev.PagesTouched > 0 {
		return fmt.Errorf("kernel touching %d pages but no capture (run with SetWhatIfCapture)", ev.PagesTouched)
	}
	for _, ra := range r.prefetchOrder {
		if ra.dirty {
			r.clock.Advance(r.drv.Prefetch(ra.a, machine.GPU))
			ra.dirty = false
		}
	}
	for _, aa := range ev.Accessed {
		ra := r.allocs[aa.AllocID]
		if ra != nil && ra.place == um.PlaceExplicit && ra.hostDirty {
			r.clock.Advance(r.drv.Transfer(ra.a, um.HostToDevice, 0, ra.a.Size))
			ra.hostDirty = false
		}
	}
	k := cuda.KernelCost{Work: ev.Work}
	for _, aa := range ev.Accessed {
		ra := r.allocs[aa.AllocID]
		if ra == nil {
			return fmt.Errorf("kernel access to unknown allocation %d", aa.AllocID)
		}
		k.PagesTouched += len(aa.Pages)
		// Sum this allocation's memory time separately, then scale it by
		// the captured coalescing penalty — the same per-allocation
		// integer multiply the live launch applied, on per-allocation sums
		// that partition the same access costs, so the observed-placement
		// replay stays bit-exact. The penalty is placement-invariant (the
		// access sequence does not depend on page residency), which is why
		// candidate replays reuse the captured value.
		var local, remote machine.Duration
		for _, pa := range aa.Pages {
			c := r.drv.Access(machine.GPU, ra.a, pa.Page, pa.Reads, pa.Writes, pa.Accesses)
			local += c.Local
			remote += c.Remote
			k.Serial += c.Serial
			k.Faults += c.Faults
			k.MigratedBytes += c.MigratedBytes
		}
		k.Local += cuda.ScaleCoalesce(local, aa.Pattern.PenaltyPct)
		k.Remote += cuda.ScaleCoalesce(remote, aa.Pattern.PenaltyPct)
		if ra.place == um.PlaceExplicit && writes(aa) > 0 {
			ra.gpuDirty = true
		}
	}
	dur := r.plat.KernelLaunch + cuda.FoldKernelCost(r.plat, k)
	r.growTracks(ev.Track)
	r.clock.Reserve(ev.Track, dur)
	r.clock.Advance(machine.Microsecond) // async launch issue overhead
	return nil
}

func (r *replayer) growTracks(track int) {
	for r.clock.Tracks() <= track {
		r.clock.NewTrack()
	}
}

func reads(aa timeline.AllocAccess) int64 {
	var n int64
	for _, pa := range aa.Pages {
		n += pa.Reads
	}
	return n
}

func writes(aa timeline.AllocAccess) int64 {
	var n int64
	for _, pa := range aa.Pages {
		n += pa.Writes
	}
	return n
}

// allocKind maps a KindAlloc event name back to the allocation kind.
func allocKind(name string) (memsim.Kind, error) {
	switch name {
	case "mallocManaged":
		return memsim.Managed, nil
	case "malloc":
		return memsim.DeviceOnly, nil
	case "hostAlloc":
		return memsim.HostOnly, nil
	}
	return 0, fmt.Errorf("unknown alloc event %q", name)
}

// deviceOf parses the device out of an advice/prefetch event's Detail
// (emitted as Device.String(), optionally followed by a range).
func deviceOf(detail string) machine.Device {
	if strings.HasPrefix(detail, machine.GPU.String()) {
		return machine.GPU
	}
	return machine.CPU
}
