// Package um implements the simulated unified-memory driver.
//
// It is the analog of the CUDA UM runtime the paper's anti-patterns are
// about (§II-A, §II-B): page-granular managed memory with on-demand
// migration to the faulting processor, read-duplication under
// cudaMemAdviseSetReadMostly, direct mappings under SetPreferredLocation
// and SetAccessedBy, GPU memory over-subscription with eviction, and —
// on hardware-coherent platforms such as IBM Power9 + NVLink2 — fault-free
// remote access with access-counter-based migration.
//
// The driver charges every access with a three-component cost (see Cost):
// local memory time (parallelizable across GPU threads), remote-link time
// (parallelizable up to the interconnect's concurrency), and serial driver
// time (faults, migrations, invalidations, evictions). The execution
// contexts in internal/cuda fold these into the simulated clock.
package um

import (
	"fmt"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/timeline"
)

// Advice mirrors the cudaMemAdvise options described in §II-B.
type Advice uint8

// Advice values. Each Set has a matching Unset, as in the CUDA API.
const (
	AdviseSetReadMostly Advice = iota
	AdviseUnsetReadMostly
	AdviseSetPreferredLocation
	AdviseUnsetPreferredLocation
	AdviseSetAccessedBy
	AdviseUnsetAccessedBy
)

func (a Advice) String() string {
	switch a {
	case AdviseSetReadMostly:
		return "SetReadMostly"
	case AdviseUnsetReadMostly:
		return "UnsetReadMostly"
	case AdviseSetPreferredLocation:
		return "SetPreferredLocation"
	case AdviseUnsetPreferredLocation:
		return "UnsetPreferredLocation"
	case AdviseSetAccessedBy:
		return "SetAccessedBy"
	case AdviseUnsetAccessedBy:
		return "UnsetAccessedBy"
	default:
		return fmt.Sprintf("Advice(%d)", uint8(a))
	}
}

// AdviceByName parses an advice name as printed by Advice.String, the
// form timeline advice events carry in their Name field.
func AdviceByName(name string) (Advice, error) {
	for a := AdviseSetReadMostly; a <= AdviseUnsetAccessedBy; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("um: unknown advice %q", name)
}

// Placement is a candidate data-placement policy for one allocation — the
// strategies the paper's §IV evaluation compares and the what-if engine
// (internal/whatif) re-prices a captured trace under.
type Placement uint8

// Placement policies.
const (
	// PlaceObserved keeps whatever the live run did (allocation kind,
	// advice, prefetches) — the replay baseline.
	PlaceObserved Placement = iota
	// PlaceManaged strips all advice: plain cudaMallocManaged first-touch
	// migration (also converts cudaMalloc allocations to managed).
	PlaceManaged
	// PlacePreferredGPU pins pages on the GPU (SetPreferredLocation(GPU));
	// the CPU maps and accesses them remotely.
	PlacePreferredGPU
	// PlacePreferredCPU pins pages on the host; the GPU reads remotely.
	PlacePreferredCPU
	// PlaceReadMostly read-duplicates pages on first read per device
	// (SetReadMostly); writes collapse the duplicates.
	PlaceReadMostly
	// PlacePrefetch keeps managed memory but prefetches the allocation to
	// the GPU before any kernel launch that follows a host touch
	// (cudaMemPrefetchAsync before the launch).
	PlacePrefetch
	// PlaceExplicit models the classic cudaMalloc + cudaMemcpy port: host
	// code works on a host mirror, whole-allocation copies are inserted
	// around kernels. Predict-only for allocations with host element
	// accesses (the simulated app would have to be rewritten to apply it).
	PlaceExplicit
)

func (p Placement) String() string {
	switch p {
	case PlaceObserved:
		return "observed"
	case PlaceManaged:
		return "managed"
	case PlacePreferredGPU:
		return "preferred-gpu"
	case PlacePreferredCPU:
		return "preferred-cpu"
	case PlaceReadMostly:
		return "read-mostly"
	case PlacePrefetch:
		return "prefetch"
	case PlaceExplicit:
		return "explicit-copy"
	default:
		return fmt.Sprintf("Placement(%d)", uint8(p))
	}
}

// Placements returns every placement policy, enumeration order.
func Placements() []Placement {
	return []Placement{
		PlaceObserved, PlaceManaged, PlacePreferredGPU, PlacePreferredCPU,
		PlaceReadMostly, PlacePrefetch, PlaceExplicit,
	}
}

// PlacementByName parses a placement name as printed by Placement.String.
func PlacementByName(name string) (Placement, error) {
	for _, p := range Placements() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("um: unknown placement %q", name)
}

// Cost is the simulated cost charged for one access, split by how the
// components overlap with other work:
//
//   - Local memory time divides by the kernel's GPU parallelism.
//   - Remote (peer-memory) time divides by the link's RemoteConcurrency.
//   - Faults carry FaultService latency each; within a kernel they batch
//     into page fault groups (divide by FaultConcurrency), on the host
//     they are serviced one at a time.
//   - MigratedBytes move at link bandwidth (pipelined within a kernel).
//   - Serial is un-overlappable driver time (e.g. invalidation broadcasts).
type Cost struct {
	Local         machine.Duration
	Remote        machine.Duration
	Serial        machine.Duration
	Faults        int
	MigratedBytes int64
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.Local += o.Local
	c.Remote += o.Remote
	c.Serial += o.Serial
	c.Faults += o.Faults
	c.MigratedBytes += o.MigratedBytes
}

// HostTime folds the cost into a single duration for sequential host code:
// every component serializes.
func (c Cost) HostTime(p *machine.Platform) machine.Duration {
	d := c.Local + c.Remote + c.Serial + machine.Duration(c.Faults)*p.FaultService
	if c.MigratedBytes > 0 {
		d += p.TransferTime(c.MigratedBytes)
	}
	return d
}

// Stats counts driver events. All counters are cumulative; Snapshot and
// Sub make interval accounting easy.
type Stats struct {
	// FaultsCPU and FaultsGPU count page faults taken by each processor.
	FaultsCPU, FaultsGPU int64
	// MigrationsH2D / MigrationsD2H count whole-page migrations.
	MigrationsH2D, MigrationsD2H int64
	// BytesH2D / BytesD2H count migrated and explicitly transferred bytes.
	BytesH2D, BytesD2H int64
	// Duplications counts read-only page copies created under ReadMostly.
	Duplications int64
	// Invalidations counts collapse events of read-duplicated pages.
	Invalidations int64
	// Evictions counts pages evicted from the GPU due to over-subscription.
	Evictions int64
	// RemoteCPU / RemoteGPU count word accesses served from peer memory.
	RemoteCPU, RemoteGPU int64
	// Mappings counts direct mappings established without migration.
	Mappings int64
	// CounterMigrations counts access-counter-triggered migrations on
	// hardware-coherent platforms.
	CounterMigrations int64
	// Transfers counts explicit memcpy operations.
	Transfers int64
	// Thrashes counts faults on pages that had been GPU-resident before
	// and were evicted — the signature of an over-subscribed working set
	// (the Smith-Waterman 46000 case, §IV-B).
	Thrashes int64
}

// Sub returns s - o, for interval (per-timestep) statistics.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		FaultsCPU:         s.FaultsCPU - o.FaultsCPU,
		FaultsGPU:         s.FaultsGPU - o.FaultsGPU,
		MigrationsH2D:     s.MigrationsH2D - o.MigrationsH2D,
		MigrationsD2H:     s.MigrationsD2H - o.MigrationsD2H,
		BytesH2D:          s.BytesH2D - o.BytesH2D,
		BytesD2H:          s.BytesD2H - o.BytesD2H,
		Duplications:      s.Duplications - o.Duplications,
		Invalidations:     s.Invalidations - o.Invalidations,
		Evictions:         s.Evictions - o.Evictions,
		RemoteCPU:         s.RemoteCPU - o.RemoteCPU,
		RemoteGPU:         s.RemoteGPU - o.RemoteGPU,
		Mappings:          s.Mappings - o.Mappings,
		CounterMigrations: s.CounterMigrations - o.CounterMigrations,
		Transfers:         s.Transfers - o.Transfers,
		Thrashes:          s.Thrashes - o.Thrashes,
	}
}

// Faults returns the total fault count across devices.
func (s Stats) Faults() int64 { return s.FaultsCPU + s.FaultsGPU }

// Migrations returns the total page migration count.
func (s Stats) Migrations() int64 { return s.MigrationsH2D + s.MigrationsD2H }

// page is the driver's per-page state.
type page struct {
	owner    machine.Device
	touched  bool
	inQueue  bool  // currently in the GPU residency queue
	evicted  bool  // was GPU-resident once and got evicted (thrash marker)
	copyMask uint8 // devices holding a read-only duplicate (excluding owner)
	mapMask  uint8 // devices with a direct mapping to the owner's copy
	remote   [machine.NumDevices]int32
}

func devBit(d machine.Device) uint8 { return 1 << uint8(d) }

func (p *page) gpuResident() bool {
	return p.touched && (p.owner == machine.GPU || p.copyMask&devBit(machine.GPU) != 0)
}

// pageAdvice is the per-page advice state, materialized lazily when a
// sub-range advise is issued (the real cudaMemAdvise is range-based).
type pageAdvice struct {
	readMostly bool
	preferred  int8
	accessedBy uint8
}

// allocMeta is the driver's per-allocation state.
type allocMeta struct {
	alloc      *memsim.Alloc
	readMostly bool
	preferred  int8 // -1 = unset, else machine.Device
	accessedBy uint8
	// pageAdv overrides the allocation-level advice per page once a
	// range advise has been issued; nil otherwise.
	pageAdv []pageAdvice
	pages   []page
	stats   Stats
}

// advice returns the effective advice for page pi.
func (m *allocMeta) advice(pi int32) (readMostly bool, preferred int8, accessedBy uint8) {
	if m.pageAdv != nil {
		pa := &m.pageAdv[pi]
		return pa.readMostly, pa.preferred, pa.accessedBy
	}
	return m.readMostly, m.preferred, m.accessedBy
}

// materializeAdvice switches the allocation to per-page advice.
func (m *allocMeta) materializeAdvice() {
	if m.pageAdv != nil {
		return
	}
	m.pageAdv = make([]pageAdvice, len(m.pages))
	for i := range m.pageAdv {
		m.pageAdv[i] = pageAdvice{
			readMostly: m.readMostly,
			preferred:  m.preferred,
			accessedBy: m.accessedBy,
		}
	}
}

type pageRef struct {
	meta *allocMeta
	idx  int32
}

// Driver is the unified-memory driver for one simulated machine.
//
// When a timeline is attached (SetTimeline) the driver is an emitter
// over it: advice calls and prefetches produce events directly, while
// the per-access fault classes (faults, migrations, evictions,
// invalidations, ...) accumulate into counter windows that the runtime
// drains (Window) into the enclosing kernel, transfer, or host-phase
// span — aggregate emission only, never on the per-access hot path.
type Driver struct {
	plat      *machine.Platform
	space     *memsim.Space
	pageShift uint
	meta      []*allocMeta // indexed by alloc ID; nil for unregistered
	stats     Stats

	tl      *timeline.Timeline
	winBase Stats // stats snapshot at the last Window drain

	gpuUsed  int64 // bytes of GPU memory in use (managed pages + device allocs)
	gpuQueue []pageRef
	qHead    int
}

// NewDriver creates a driver for the platform. The space's page size must
// match the platform's.
func NewDriver(plat *machine.Platform, space *memsim.Space) *Driver {
	if space.PageSize() != plat.PageSize {
		panic(fmt.Sprintf("um: space page size %d != platform page size %d", space.PageSize(), plat.PageSize))
	}
	shift := uint(0)
	for 1<<shift != plat.PageSize {
		shift++
	}
	return &Driver{plat: plat, space: space, pageShift: shift}
}

// Platform returns the driver's machine model.
func (d *Driver) Platform() *machine.Platform { return d.plat }

// SetTimeline attaches the event spine the driver emits over; nil
// detaches it. Attach before the first operation so counter windows
// line up with the event stream.
func (d *Driver) SetTimeline(tl *timeline.Timeline) { d.tl = tl }

// Window drains the driver's activity counters since the previous drain
// and returns the delta. The runtime calls it once per emitted span
// (kernel end, transfer, prefetch, host-phase flush), so consecutive
// windows partition the driver's activity exactly.
func (d *Driver) Window() Stats {
	delta := d.stats.Sub(d.winBase)
	d.winBase = d.stats
	return delta
}

// TimelineStats converts a stats (delta) into the per-fault-class form
// timeline events carry.
func (s Stats) TimelineStats() timeline.DriverStats {
	return timeline.DriverStats{
		FaultsCPU:         s.FaultsCPU,
		FaultsGPU:         s.FaultsGPU,
		MigrationsH2D:     s.MigrationsH2D,
		MigrationsD2H:     s.MigrationsD2H,
		BytesH2D:          s.BytesH2D,
		BytesD2H:          s.BytesD2H,
		Duplications:      s.Duplications,
		Invalidations:     s.Invalidations,
		Evictions:         s.Evictions,
		Thrashes:          s.Thrashes,
		CounterMigrations: s.CounterMigrations,
		Mappings:          s.Mappings,
	}
}

// Register makes the driver manage an allocation. Managed allocations get
// per-page state; DeviceOnly allocations are charged against GPU memory as
// a whole. HostOnly allocations are registered for completeness but carry
// no page state.
func (d *Driver) Register(a *memsim.Alloc) {
	for len(d.meta) <= a.ID {
		d.meta = append(d.meta, nil)
	}
	m := &allocMeta{alloc: a, preferred: -1}
	if a.Kind == memsim.Managed {
		n := (a.Size + d.plat.PageSize - 1) / d.plat.PageSize
		m.pages = make([]page, n)
	}
	if a.Kind == memsim.DeviceOnly {
		d.gpuUsed += a.Size
	}
	d.meta[a.ID] = m
}

// Unregister releases the driver state of an allocation (cudaFree). GPU
// residency held by the allocation is returned to the pool.
func (d *Driver) Unregister(a *memsim.Alloc) {
	if a.ID >= len(d.meta) || d.meta[a.ID] == nil {
		return
	}
	m := d.meta[a.ID]
	if a.Kind == memsim.DeviceOnly {
		d.gpuUsed -= a.Size
	}
	for i := range m.pages {
		if m.pages[i].gpuResident() {
			d.gpuUsed -= d.plat.PageSize
		}
		m.pages[i] = page{}
	}
	d.meta[a.ID] = nil
}

// Advise applies a cudaMemAdvise-style hint to the whole allocation.
// dev is the device argument of the advice (used by SetPreferredLocation
// and Set/UnsetAccessedBy).
func (d *Driver) Advise(a *memsim.Alloc, adv Advice, dev machine.Device) error {
	m := d.metaOf(a)
	if a.Kind != memsim.Managed {
		return fmt.Errorf("um: advice %s on non-managed allocation %s", adv, a)
	}
	if err := d.applyAdvice(m, 0, int32(len(m.pages)), adv, dev); err != nil {
		return err
	}
	d.emitAdvice(a, adv, dev, -1, a.Size)
	// Whole-allocation advice also updates the allocation-level defaults.
	switch adv {
	case AdviseSetReadMostly:
		m.readMostly = true
	case AdviseUnsetReadMostly:
		m.readMostly = false
	case AdviseSetPreferredLocation:
		m.preferred = int8(dev)
	case AdviseUnsetPreferredLocation:
		m.preferred = -1
	case AdviseSetAccessedBy:
		m.accessedBy |= devBit(dev)
	case AdviseUnsetAccessedBy:
		m.accessedBy &^= devBit(dev)
	}
	return nil
}

// AdviseRange applies a hint to the pages covering [off, off+n) of the
// allocation, like the real range-based cudaMemAdvise.
func (d *Driver) AdviseRange(a *memsim.Alloc, off, n int64, adv Advice, dev machine.Device) error {
	m := d.metaOf(a)
	if a.Kind != memsim.Managed {
		return fmt.Errorf("um: advice %s on non-managed allocation %s", adv, a)
	}
	if off < 0 || n <= 0 || off+n > a.Size {
		return fmt.Errorf("um: advice range [%d,%d) out of bounds of %s", off, off+n, a)
	}
	m.materializeAdvice()
	first := int32(off >> d.pageShift)
	last := int32((off + n - 1) >> d.pageShift)
	if err := d.applyAdvice(m, first, last+1, adv, dev); err != nil {
		return err
	}
	d.emitAdvice(a, adv, dev, off, n)
	return nil
}

// emitAdvice places a cudaMemAdvise instant on the timeline. off == -1
// marks whole-allocation advice (which also updates allocation-level
// defaults, unlike a range that happens to span everything).
func (d *Driver) emitAdvice(a *memsim.Alloc, adv Advice, dev machine.Device, off, n int64) {
	if d.tl == nil {
		return
	}
	detail := dev.String()
	if off >= 0 {
		detail += fmt.Sprintf(" [%d,%d)", off, off+n)
	}
	d.tl.Emit(timeline.Event{
		Kind:    timeline.KindAdvice,
		Name:    adv.String(),
		Track:   timeline.HostTrack,
		Start:   d.tl.Now(),
		Alloc:   a.Label,
		AllocID: a.ID,
		Bytes:   n,
		Off:     off,
		Waits:   timeline.WaitsNone,
		Detail:  detail,
	})
}

// applyAdvice updates page state for [first, limit) and, when per-page
// advice is materialized, the per-page advice records.
func (d *Driver) applyAdvice(m *allocMeta, first, limit int32, adv Advice, dev machine.Device) error {
	set := func(f func(pa *pageAdvice)) {
		if m.pageAdv == nil {
			return
		}
		for i := first; i < limit; i++ {
			f(&m.pageAdv[i])
		}
	}
	switch adv {
	case AdviseSetReadMostly:
		set(func(pa *pageAdvice) { pa.readMostly = true })
	case AdviseUnsetReadMostly:
		set(func(pa *pageAdvice) { pa.readMostly = false })
		// Collapse duplicates in the range: keep the owner's copy only.
		for i := first; i < limit; i++ {
			pg := &m.pages[i]
			if pg.copyMask&devBit(machine.GPU) != 0 && pg.owner != machine.GPU {
				d.gpuUsed -= d.plat.PageSize
			}
			pg.copyMask = 0
		}
	case AdviseSetPreferredLocation:
		set(func(pa *pageAdvice) { pa.preferred = int8(dev) })
	case AdviseUnsetPreferredLocation:
		set(func(pa *pageAdvice) { pa.preferred = -1 })
	case AdviseSetAccessedBy:
		set(func(pa *pageAdvice) { pa.accessedBy |= devBit(dev) })
	case AdviseUnsetAccessedBy:
		set(func(pa *pageAdvice) { pa.accessedBy &^= devBit(dev) })
	default:
		return fmt.Errorf("um: unknown advice %d", adv)
	}
	return nil
}

func (d *Driver) metaOf(a *memsim.Alloc) *allocMeta {
	if a.ID >= len(d.meta) || d.meta[a.ID] == nil {
		panic(fmt.Sprintf("um: allocation %s not registered with driver", a))
	}
	return d.meta[a.ID]
}

// Stats returns cumulative driver statistics.
func (d *Driver) Stats() Stats { return d.stats }

// AllocStats returns cumulative statistics for one allocation.
func (d *Driver) AllocStats(a *memsim.Alloc) Stats { return d.metaOf(a).stats }

// GPUMemoryUsed reports the bytes of GPU memory currently occupied.
func (d *Driver) GPUMemoryUsed() int64 { return d.gpuUsed }

// Access charges element accesses by dev to page pi of the allocation and
// walks that page's state machine: first touch, migration, read
// duplication, direct mappings, remote access and access-counter
// migration. readWords and writeWords are the cost-words (4-byte units)
// the accesses read and write, a read-modify-write counting as a write,
// spread over `accesses` element accesses. It returns the cost split
// described on Cost.
//
// A live element access (cuda.Exec) is one call with accesses == 1. The
// what-if replay (internal/whatif) passes one span's per-page totals in
// one call: within a span the first access to a page prices exactly like
// the steady state it establishes (first touch then local, migrate then
// local, map then remote), so the span total equals the per-access sum.
// Two replay approximations remain: a counter migration that splits a
// span assumes uniform words per access, and under ReadMostly a span's
// reads are priced before its writes. A zero-word access still runs the
// transitions, except on a read-mostly page, where the word counts
// decide between duplication and invalidation.
func (d *Driver) Access(dev machine.Device, a *memsim.Alloc, pi int32, readWords, writeWords, accesses int64) Cost {
	m := d.metaOf(a)
	words := readWords + writeWords
	local := d.plat.AccessTime(dev) * machine.Duration(words)

	switch a.Kind {
	case memsim.HostOnly:
		if dev != machine.CPU {
			panic(fmt.Sprintf("um: GPU access to host-only allocation %s", a))
		}
		return Cost{Local: local}
	case memsim.DeviceOnly:
		if dev != machine.GPU {
			panic(fmt.Sprintf("um: CPU access to device-only allocation %s (use Memcpy)", a))
		}
		return Cost{Local: local}
	}

	// Managed memory: page state machine.
	pg := &m.pages[pi]
	readMostly, preferred, accessedBy := m.advice(pi)

	var c Cost
	if !pg.touched {
		// First touch: populate on the toucher (§II-B "default").
		pg.touched = true
		pg.owner = dev
		if preferred >= 0 {
			// Populate at the preferred location instead; the toucher maps it.
			pg.owner = machine.Device(preferred)
		}
		if dev == machine.GPU {
			d.fault(m, dev, &c)
		}
		if pg.owner == machine.GPU {
			d.ensureGPURoom(m, pi, &c)
			d.gpuUsed += d.plat.PageSize
			d.enqueue(m, pi)
		}
		if pg.owner != dev {
			pg.mapMask |= devBit(dev)
			c.Remote += d.plat.RemoteAccess * machine.Duration(words)
			d.noteRemote(m, dev, words)
			return c
		}
		c.Local += local
		return c
	}

	if readMostly {
		return d.chargeReadMostly(m, pg, pi, dev, readWords, writeWords)
	}

	if pg.owner == dev {
		return Cost{Local: local}
	}

	// Peer access: mapped, accessed-by, or hardware-coherent remote.
	if accessedBy&devBit(dev) != 0 || pg.mapMask&devBit(dev) != 0 || d.plat.HardwareCoherent {
		d.chargeRemote(m, pg, pi, dev, words, accesses, preferred, &c)
		return c
	}

	// Fault path (PCIe platforms): one fault, then either a direct
	// mapping (data already at its preferred location, §II-B) or a
	// migration followed by local access.
	d.fault(m, dev, &c)
	if preferred >= 0 && machine.Device(preferred) == pg.owner {
		pg.mapMask |= devBit(dev)
		d.stats.Mappings++
		m.stats.Mappings++
		c.Remote += d.plat.RemoteAccess * machine.Duration(words)
		d.noteRemote(m, dev, words)
		return c
	}
	d.migrate(m, pg, pi, dev, &c)
	c.Local += local
	return c
}

// chargeRemote prices remote accesses against a peer-owned page. On a
// hardware-coherent platform without a preferred location, each remote
// access bumps dev's access counter on the page; the access that brings
// it to the platform's threshold (the first one when the threshold is 0
// or less) is still served remotely, then the page migrates and the rest
// run local.
func (d *Driver) chargeRemote(m *allocMeta, pg *page, pi int32, dev machine.Device, words, accesses int64, preferred int8, c *Cost) {
	if d.plat.HardwareCoherent && preferred < 0 {
		remaining := max(int64(d.plat.CounterMigrationThreshold)-int64(pg.remote[dev]), 1)
		if accesses >= remaining {
			remoteWords := words * remaining / accesses
			c.Remote += d.plat.RemoteAccess * machine.Duration(remoteWords)
			d.noteRemote(m, dev, remoteWords)
			d.stats.CounterMigrations++
			m.stats.CounterMigrations++
			d.migrate(m, pg, pi, dev, c)
			c.Local += d.plat.AccessTime(dev) * machine.Duration(words-remoteWords)
			return
		}
		pg.remote[dev] += int32(accesses)
	}
	c.Remote += d.plat.RemoteAccess * machine.Duration(words)
	d.noteRemote(m, dev, words)
}

// chargeReadMostly prices reads, then writes, against a read-duplicated
// page. A read off the page's holders creates a read-only duplicate on
// dev; a write collapses every duplicate and moves the page to the writer
// (§II-B SetReadMostly).
func (d *Driver) chargeReadMostly(m *allocMeta, pg *page, pi int32, dev machine.Device, readWords, writeWords int64) Cost {
	var c Cost
	if readWords > 0 {
		if pg.owner != dev && pg.copyMask&devBit(dev) == 0 {
			d.fault(m, dev, &c)
			c.MigratedBytes += d.plat.PageSize
			pg.copyMask |= devBit(dev)
			d.stats.Duplications++
			m.stats.Duplications++
			if dev == machine.GPU {
				// The duplicate occupies GPU memory and must be evictable
				// like any other resident page.
				d.ensureGPURoom(m, pi, &c)
				d.gpuUsed += d.plat.PageSize
				d.enqueue(m, pi)
			}
			d.noteBytes(dev, d.plat.PageSize)
		}
		c.Local += d.plat.AccessTime(dev) * machine.Duration(readWords)
	}
	if writeWords > 0 {
		if pg.copyMask != 0 {
			if pg.copyMask&devBit(machine.GPU) != 0 && pg.owner != machine.GPU {
				d.gpuUsed -= d.plat.PageSize
			}
			pg.copyMask = 0
			c.Serial += d.plat.ReadMostlyInvalidate
			d.stats.Invalidations++
			m.stats.Invalidations++
		}
		if pg.owner != dev {
			d.fault(m, dev, &c)
			d.migrate(m, pg, pi, dev, &c)
		}
		c.Local += d.plat.AccessTime(dev) * machine.Duration(writeWords)
	}
	return c
}

// fault records one page fault by dev.
func (d *Driver) fault(m *allocMeta, dev machine.Device, c *Cost) {
	c.Faults++
	if dev == machine.GPU {
		d.stats.FaultsGPU++
		m.stats.FaultsGPU++
	} else {
		d.stats.FaultsCPU++
		m.stats.FaultsCPU++
	}
}

// migrate moves ownership of the page to dev and charges the transfer.
func (d *Driver) migrate(m *allocMeta, pg *page, pi int32, dev machine.Device, c *Cost) {
	c.MigratedBytes += d.plat.PageSize
	if dev == machine.GPU {
		if pg.evicted {
			// The page returns to the GPU after an eviction: thrashing.
			pg.evicted = false
			d.stats.Thrashes++
			m.stats.Thrashes++
		}
		d.ensureGPURoom(m, pi, c)
		d.gpuUsed += d.plat.PageSize
		d.enqueue(m, pi)
		d.stats.MigrationsH2D++
		m.stats.MigrationsH2D++
		d.noteBytes(machine.GPU, d.plat.PageSize)
	} else {
		if pg.gpuResident() {
			d.gpuUsed -= d.plat.PageSize
		}
		d.stats.MigrationsD2H++
		m.stats.MigrationsD2H++
		d.noteBytes(machine.CPU, d.plat.PageSize)
	}
	pg.owner = dev
	pg.mapMask = 0 // peers must re-establish mappings
	pg.remote = [machine.NumDevices]int32{}
}

// noteRemote records words served from peer memory.
func (d *Driver) noteRemote(m *allocMeta, dev machine.Device, words int64) {
	if dev == machine.GPU {
		d.stats.RemoteGPU += words
		m.stats.RemoteGPU += words
	} else {
		d.stats.RemoteCPU += words
		m.stats.RemoteCPU += words
	}
}

// noteBytes records bytes moved toward dev.
func (d *Driver) noteBytes(toward machine.Device, n int64) {
	if toward == machine.GPU {
		d.stats.BytesH2D += n
	} else {
		d.stats.BytesD2H += n
	}
}

// enqueue adds a GPU-resident page to the eviction queue.
func (d *Driver) enqueue(m *allocMeta, pi int32) {
	pg := &m.pages[pi]
	if pg.inQueue {
		return
	}
	pg.inQueue = true
	d.gpuQueue = append(d.gpuQueue, pageRef{meta: m, idx: pi})
}

// ensureGPURoom evicts pages (FIFO over fault order) until one more page
// fits in GPU memory, charging eviction traffic to c. skip is a page index
// in the *current* allocation that must not be evicted (the page being
// faulted in), or -1.
func (d *Driver) ensureGPURoom(m *allocMeta, skip int32, c *Cost) {
	for d.gpuUsed+d.plat.PageSize > d.plat.GPUMemory {
		if d.qHead >= len(d.gpuQueue) {
			// Everything remaining is device-only memory; allow managed
			// over-subscription to proceed (cannot evict cudaMalloc blocks).
			break
		}
		ref := d.gpuQueue[d.qHead]
		d.qHead++
		pg := &ref.meta.pages[ref.idx]
		pg.inQueue = false
		if ref.meta == m && ref.idx == skip {
			// Do not evict the page we are faulting in; re-queue it.
			d.enqueue(ref.meta, ref.idx)
			continue
		}
		if !pg.gpuResident() {
			continue // stale entry
		}
		// Evict: write the page back to the host.
		if pg.owner == machine.GPU {
			pg.owner = machine.CPU
			pg.evicted = true
			pg.mapMask = 0
			pg.remote = [machine.NumDevices]int32{}
			c.MigratedBytes += d.plat.PageSize
			d.stats.MigrationsD2H++
			ref.meta.stats.MigrationsD2H++
			d.noteBytes(machine.CPU, d.plat.PageSize)
		} else {
			// Only a read duplicate lives on the GPU: drop it for free.
			pg.copyMask &^= devBit(machine.GPU)
		}
		d.gpuUsed -= d.plat.PageSize
		d.stats.Evictions++
		ref.meta.stats.Evictions++
	}
	// Compact the queue occasionally so it does not grow without bound.
	if d.qHead > 4096 && d.qHead*2 > len(d.gpuQueue) {
		d.gpuQueue = append([]pageRef(nil), d.gpuQueue[d.qHead:]...)
		d.qHead = 0
	}
}

// TransferDir is the direction of an explicit memcpy.
type TransferDir uint8

// Transfer directions, mirroring cudaMemcpyKind.
const (
	HostToDevice TransferDir = iota
	DeviceToHost
)

func (t TransferDir) String() string {
	if t == DeviceToHost {
		return "DeviceToHost"
	}
	return "HostToDevice"
}

// Transfer charges an explicit cudaMemcpy of n bytes covering
// [off, off+n) of the allocation and returns its duration. Data movement
// itself is done by the caller (internal/cuda) on the backing store. On
// managed allocations the covered pages also move with the copy — the
// bulk copy populates or relocates them without faulting: HostToDevice
// leaves them GPU-resident, DeviceToHost returns them to the host. That
// keeps an explicit-copy port and a managed run consistent when the
// what-if engine converts between them.
func (d *Driver) Transfer(a *memsim.Alloc, dir TransferDir, off, n int64) machine.Duration {
	m := d.metaOf(a)
	d.stats.Transfers++
	m.stats.Transfers++
	if dir == HostToDevice {
		d.noteBytes(machine.GPU, n)
	} else {
		d.noteBytes(machine.CPU, n)
	}
	dur := d.plat.TransferTime(n)
	if a.Kind == memsim.Managed && n > 0 {
		var c Cost
		d.transferPages(m, dir, off, n, &c)
		if c.MigratedBytes > 0 {
			// Evictions forced by the incoming pages serialize with the copy.
			dur += d.plat.TransferTime(c.MigratedBytes)
		}
	}
	return dur
}

// transferPages updates managed page residency for the pages covered by an
// explicit copy. The copy itself is the data movement, so no faults or
// migration traffic are charged for the covered pages — only evictions the
// incoming pages force (via ensureGPURoom) cost extra, accumulated into c.
func (d *Driver) transferPages(m *allocMeta, dir TransferDir, off, n int64, c *Cost) {
	first := int32(off >> d.pageShift)
	last := int32((off + n - 1) >> d.pageShift)
	for i := first; i <= last; i++ {
		pg := &m.pages[i]
		if dir == HostToDevice {
			if pg.touched && pg.owner == machine.GPU {
				continue
			}
			if !pg.gpuResident() {
				d.ensureGPURoom(m, i, c)
				d.gpuUsed += d.plat.PageSize
			}
			pg.touched = true
			pg.owner = machine.GPU
			pg.copyMask = 0
			pg.mapMask = 0
			pg.remote = [machine.NumDevices]int32{}
			d.enqueue(m, i)
		} else {
			if !pg.touched || pg.owner != machine.GPU {
				continue
			}
			pg.owner = machine.CPU
			pg.mapMask = 0
			pg.remote = [machine.NumDevices]int32{}
			if !pg.gpuResident() {
				d.gpuUsed -= d.plat.PageSize
			}
		}
	}
}

// Prefetch moves all pages of a managed allocation to dev ahead of use
// (cudaMemPrefetchAsync analog) and returns the cost. Bulk prefetches
// pipeline: the bytes move in one link transaction without per-page fault
// latency.
func (d *Driver) Prefetch(a *memsim.Alloc, dev machine.Device) machine.Duration {
	m := d.metaOf(a)
	if a.Kind != memsim.Managed {
		return 0
	}
	var c Cost
	for i := range m.pages {
		pg := &m.pages[i]
		if !pg.touched {
			pg.touched = true
			pg.owner = dev
			if dev == machine.GPU {
				d.ensureGPURoom(m, int32(i), &c)
				d.gpuUsed += d.plat.PageSize
				d.enqueue(m, int32(i))
			}
			continue
		}
		if pg.owner != dev {
			d.migrate(m, pg, int32(i), dev, &c)
		}
	}
	dur := c.Serial
	if c.MigratedBytes > 0 {
		dur += d.plat.TransferTime(c.MigratedBytes)
	}
	if d.tl != nil {
		d.tl.Emit(timeline.Event{
			Kind:          timeline.KindPrefetch,
			Name:          "prefetch to " + dev.String(),
			Track:         timeline.HostTrack,
			Start:         d.tl.Now(),
			Dur:           dur,
			Alloc:         a.Label,
			AllocID:       a.ID,
			Bytes:         a.Size,
			MigratedBytes: c.MigratedBytes,
			Detail:        dev.String(),
			Off:           -1,
			Waits:         timeline.WaitsNone,
			Drv:           d.Window().TimelineStats(),
		})
	}
	return dur
}
