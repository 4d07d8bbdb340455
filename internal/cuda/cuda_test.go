package cuda

import (
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
)

func testPlat() *machine.Platform {
	p := machine.IntelPascal().Clone()
	p.PageSize = 4096
	p.GPUMemory = 64 * 4096
	return p
}

func TestContextAllocFree(t *testing.T) {
	ctx := MustContext(testPlat())
	a, err := ctx.MallocManaged(1024, "a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != memsim.Managed {
		t.Errorf("kind = %v", a.Kind)
	}
	b, err := ctx.Malloc(2048, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != memsim.DeviceOnly {
		t.Errorf("kind = %v", b.Kind)
	}
	h, err := ctx.HostAlloc(10, "h")
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind != memsim.HostOnly {
		t.Errorf("kind = %v", h.Kind)
	}
	if err := ctx.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(a); err == nil {
		t.Error("double free succeeded")
	}
}

func TestHostAccessAdvancesClock(t *testing.T) {
	ctx := MustContext(testPlat())
	a, _ := ctx.MallocManaged(64, "a")
	v := memsim.Float64s(a)
	t0 := ctx.Now()
	v.Store(ctx.Host(), 0, 1.0)
	if ctx.Now() <= t0 {
		t.Error("host access did not advance the simulated clock")
	}
}

func TestKernelTimelineAndSynchronize(t *testing.T) {
	plat := testPlat()
	ctx := MustContext(plat)
	a, _ := ctx.MallocManaged(8*1024, "a")
	v := memsim.Float64s(a)

	issued := ctx.Now()
	ctx.Launch(nil, "k", func(e *Exec) {
		for i := int64(0); i < v.Len(); i++ {
			v.Store(e, i, float64(i))
		}
	})
	// An async launch advances the host clock only slightly.
	if ctx.Now()-issued > 10*machine.Microsecond {
		t.Errorf("async launch blocked the host for %v", ctx.Now()-issued)
	}
	before := ctx.Now()
	ctx.Synchronize()
	if ctx.Now() <= before {
		t.Error("Synchronize did not wait for the kernel")
	}
	// The kernel's work must include its launch overhead.
	if ctx.Now()-issued < plat.KernelLaunch {
		t.Errorf("kernel duration %v < launch overhead %v", ctx.Now()-issued, plat.KernelLaunch)
	}
	if ctx.KernelCount() != 1 {
		t.Errorf("KernelCount = %d", ctx.KernelCount())
	}
}

func TestStreamsOverlap(t *testing.T) {
	// Two equal kernels on two streams must finish in about the time of
	// one kernel plus overheads; on one stream they serialize.
	run := func(twoStreams bool) machine.Duration {
		plat := testPlat()
		ctx := MustContext(plat)
		a, _ := ctx.MallocManaged(1<<20, "a")
		v := memsim.Float64s(a)
		ctx.Prefetch(a, machine.GPU) // avoid fault noise
		body := func(lo, hi int64) func(e *Exec) {
			return func(e *Exec) {
				for i := lo; i < hi; i++ {
					v.Store(e, i, 1)
				}
			}
		}
		s1 := ctx.DefaultStream()
		s2 := s1
		if twoStreams {
			s2 = ctx.NewStream()
		}
		n := v.Len()
		ctx.Launch(s1, "k1", body(0, n/2))
		ctx.Launch(s2, "k2", body(n/2, n))
		ctx.Synchronize()
		return ctx.Now()
	}
	serial, overlap := run(false), run(true)
	if overlap >= serial {
		t.Errorf("two streams (%v) not faster than one (%v)", overlap, serial)
	}
}

func TestMemcpyMovesData(t *testing.T) {
	ctx := MustContext(testPlat())
	d, _ := ctx.Malloc(16, "d")
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ctx.MemcpyH2D(d, 4, src)
	got := make([]byte, 8)
	ctx.MemcpyD2H(got, d, 4)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("roundtrip[%d] = %d, want %d", i, got[i], src[i])
		}
	}
}

func TestMemcpyBoundsPanic(t *testing.T) {
	ctx := MustContext(testPlat())
	d, _ := ctx.Malloc(16, "d")
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds memcpy did not panic")
		}
	}()
	ctx.MemcpyH2D(d, 12, make([]byte, 8))
}

func TestMemcpyAdvancesClockByLinkTime(t *testing.T) {
	plat := testPlat()
	ctx := MustContext(plat)
	d, _ := ctx.Malloc(1<<20, "d")
	t0 := ctx.Now()
	ctx.MemcpyH2D(d, 0, make([]byte, 1<<20))
	if ctx.Now()-t0 < plat.TransferTime(1<<20) {
		t.Errorf("sync memcpy took %v, want >= %v", ctx.Now()-t0, plat.TransferTime(1<<20))
	}
}

func TestAsyncMemcpyOverlapsWithCompute(t *testing.T) {
	// Copy on stream B while a kernel runs on stream A: total < sum.
	plat := testPlat()
	runTotal := func(async bool) machine.Duration {
		ctx := MustContext(plat)
		d, _ := ctx.Malloc(4<<20, "d")
		a, _ := ctx.MallocManaged(1<<20, "a")
		ctx.Prefetch(a, machine.GPU)
		v := memsim.Float64s(a)
		kern := func(e *Exec) {
			for i := int64(0); i < v.Len(); i++ {
				v.Store(e, i, 2)
			}
		}
		buf := make([]byte, 4<<20)
		if async {
			s := ctx.NewStream()
			ctx.Launch(nil, "k", kern)
			ctx.MemcpyH2DAsync(s, d, 0, buf)
			ctx.Synchronize()
		} else {
			ctx.LaunchSync("k", kern)
			ctx.MemcpyH2D(d, 0, buf)
		}
		return ctx.Now()
	}
	if a, s := runTotal(true), runTotal(false); a >= s {
		t.Errorf("async total %v not better than sync %v", a, s)
	}
}

// recordingTracer verifies the tracer hook points.
type recordingTracer struct {
	allocs, frees, kernels int
	accesses, ranges       int
	transfers              []um.TransferDir
}

func (r *recordingTracer) TraceAccess(machine.Device, *memsim.Alloc, memsim.Addr, int64, memsim.AccessKind) {
	r.accesses++
}
func (r *recordingTracer) TraceAccessRange(machine.Device, *memsim.Alloc, memsim.Addr, int, int64, int64, memsim.AccessKind) {
	r.ranges++
}
func (r *recordingTracer) TraceAlloc(*memsim.Alloc) { r.allocs++ }
func (r *recordingTracer) TraceFree(*memsim.Alloc)  { r.frees++ }
func (r *recordingTracer) TraceTransfer(_ *memsim.Alloc, d um.TransferDir, _, _ int64) {
	r.transfers = append(r.transfers, d)
}
func (r *recordingTracer) TraceKernelLaunch(string) { r.kernels++ }

func TestTracerHooks(t *testing.T) {
	ctx := MustContext(testPlat())
	rec := &recordingTracer{}
	ctx.SetTracer(rec)

	a, _ := ctx.MallocManaged(64, "a")
	d, _ := ctx.Malloc(64, "d")
	v := memsim.Float64s(a)
	v.Store(ctx.Host(), 0, 1)
	ctx.LaunchSync("k", func(e *Exec) {
		v.Load(e, 0)
		e.TraceRange(memsim.Read, a, 0, 4, 8, 8)
	})
	ctx.MemcpyH2D(d, 0, make([]byte, 8))
	ctx.MemcpyD2H(make([]byte, 8), d, 0)
	_ = ctx.Free(a)

	if rec.allocs != 2 || rec.frees != 1 || rec.kernels != 1 {
		t.Errorf("allocs=%d frees=%d kernels=%d", rec.allocs, rec.frees, rec.kernels)
	}
	if rec.accesses != 2 || rec.ranges != 1 {
		t.Errorf("accesses = %d, ranges = %d, want 2 and 1", rec.accesses, rec.ranges)
	}
	if len(rec.transfers) != 2 || rec.transfers[0] != um.HostToDevice || rec.transfers[1] != um.DeviceToHost {
		t.Errorf("transfers = %v", rec.transfers)
	}
}

func TestNewContextValidatesPlatform(t *testing.T) {
	p := testPlat()
	p.GPUParallelism = 0
	if _, err := NewContext(p); err == nil {
		t.Error("NewContext accepted an invalid platform")
	}
}

func TestStreamSynchronizeSingleStream(t *testing.T) {
	ctx := MustContext(testPlat())
	a, _ := ctx.MallocManaged(1<<16, "a")
	v := memsim.Float64s(a)
	s := ctx.NewStream()
	ctx.Launch(s, "k", func(e *Exec) {
		for i := int64(0); i < v.Len(); i++ {
			v.Store(e, i, 1)
		}
	})
	before := ctx.Now()
	ctx.StreamSynchronize(s)
	if ctx.Now() <= before {
		t.Error("StreamSynchronize did not wait")
	}
}

func TestWorkChargesKernelTime(t *testing.T) {
	plat := testPlat()
	base := func(extra machine.Duration) machine.Duration {
		ctx := MustContext(plat)
		ctx.LaunchSync("k", func(e *Exec) { e.Work(extra) })
		return ctx.Now()
	}
	if base(machine.Second) <= base(0) {
		t.Error("Work did not extend the kernel duration")
	}
}

func TestKernelProfile(t *testing.T) {
	plat := testPlat()
	ctx := MustContext(plat)
	ctx.SetProfiling(true)
	a, _ := ctx.MallocManaged(3*4096, "a")
	v := memsim.Float64s(a)
	// CPU first-touch, then a GPU kernel that faults the pages in.
	for i := int64(0); i < v.Len(); i++ {
		v.Store(ctx.Host(), i, 1)
	}
	ctx.LaunchSync("faulty", func(e *Exec) {
		for i := int64(0); i < v.Len(); i++ {
			_ = v.Load(e, i)
		}
	})
	// A second kernel runs fault-free.
	ctx.LaunchSync("clean", func(e *Exec) {
		for i := int64(0); i < v.Len(); i++ {
			_ = v.Load(e, i)
		}
	})
	recs := ctx.KernelProfile()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Name != "faulty" || recs[0].Faults != 3 || recs[0].MigratedBytes != 3*4096 {
		t.Errorf("faulty record = %+v", recs[0])
	}
	if !recs[0].Stalled {
		t.Error("faulting kernel not marked stalled")
	}
	if recs[1].Faults != 0 || recs[1].Stalled {
		t.Errorf("clean record = %+v", recs[1])
	}
	if recs[1].Duration >= recs[0].Duration {
		t.Error("fault-free kernel should be faster")
	}
	if recs[0].PagesTouched != 3 {
		t.Errorf("pages touched = %d, want 3", recs[0].PagesTouched)
	}
	// Profiling off: no more records.
	ctx.SetProfiling(false)
	ctx.LaunchSync("off", func(e *Exec) { _ = v.Load(e, 0) })
	if len(ctx.KernelProfile()) != 2 {
		t.Error("profiling off still recorded")
	}
}

func TestEvents(t *testing.T) {
	plat := testPlat()
	ctx := MustContext(plat)
	a, _ := ctx.MallocManaged(1<<18, "a")
	v := memsim.Float64s(a)
	ctx.Prefetch(a, machine.GPU)

	s1 := ctx.DefaultStream()
	s2 := ctx.NewStream()
	start := ctx.NewEvent()
	done := ctx.NewEvent()

	ctx.Record(start, s1)
	ctx.Launch(s1, "producer", func(e *Exec) {
		for i := int64(0); i < v.Len(); i++ {
			v.Store(e, i, 1)
		}
	})
	ctx.Record(done, s1)
	// The consumer on stream 2 must not start before the producer ends.
	ctx.WaitEvent(s2, done)
	ctx.Launch(s2, "consumer", func(e *Exec) { _ = v.Load(e, 0) })
	ctx.StreamSynchronize(s2)
	consumerEnd := ctx.Now()

	ctx.EventSynchronize(done)
	if ctx.ElapsedTime(start, done) <= 0 {
		t.Error("elapsed time not positive")
	}
	if consumerEnd < done.when {
		t.Error("consumer finished before the producer event")
	}
}

func TestWaitEventUnrecordedIsNoop(t *testing.T) {
	ctx := MustContext(testPlat())
	s := ctx.NewStream()
	ev := ctx.NewEvent()
	before := s.avail()
	ctx.WaitEvent(s, ev)
	if s.avail() != before {
		t.Error("waiting on an unrecorded event changed the stream")
	}
	if ctx.ElapsedTime(ev, ev) != 0 {
		t.Error("elapsed of unrecorded events should be 0")
	}
}

func TestAdviseRangeThroughContext(t *testing.T) {
	ctx := MustContext(testPlat())
	a, _ := ctx.MallocManaged(2*4096, "a")
	if err := ctx.AdviseRange(a, 0, 4096, um.AdviseSetReadMostly, machine.CPU); err != nil {
		t.Fatal(err)
	}
	if err := ctx.AdviseRange(a, 4096, 8192, um.AdviseSetReadMostly, machine.CPU); err == nil {
		t.Error("out-of-bounds range accepted")
	}
}

func TestGPUL2Model(t *testing.T) {
	// With the optional L2 enabled, a kernel that re-reads a small buffer
	// many times gets cheaper; a single-pass kernel does not.
	run := func(l2 bool, passes int) machine.Duration {
		plat := testPlat()
		if l2 {
			plat.GPUL2Bytes = 1 << 20
			plat.GPUL2Hit = plat.GPUAccess / 8
		}
		ctx := MustContext(plat)
		a, _ := ctx.MallocManaged(1<<14, "a")
		ctx.Prefetch(a, machine.GPU)
		v := memsim.Float64s(a)
		ctx.LaunchSync("k", func(e *Exec) {
			for p := 0; p < passes; p++ {
				for i := int64(0); i < v.Len(); i++ {
					_ = v.Load(e, i)
				}
			}
		})
		return ctx.Now()
	}
	// Re-reading 8 times: the L2 model must make it clearly faster.
	if with, without := run(true, 8), run(false, 8); with >= without {
		t.Errorf("L2 did not help re-reads: %v vs %v", with, without)
	}
	// A single pass has no reuse: nearly identical cost.
	with, without := run(true, 1), run(false, 1)
	diff := float64(with-without) / float64(without)
	if diff > 0.05 || diff < -0.05 {
		t.Errorf("single pass changed by %.1f%% with L2 on", diff*100)
	}
}

func TestGPUL2CapacityBound(t *testing.T) {
	// A working set larger than the cache gets no hit pricing.
	plat := testPlat()
	plat.GPUL2Bytes = 4096 // tiny cache
	plat.GPUL2Hit = plat.GPUAccess / 8
	ctx := MustContext(plat)
	a, _ := ctx.MallocManaged(1<<16, "a") // 64 KiB working set
	ctx.Prefetch(a, machine.GPU)
	v := memsim.Float64s(a)
	ctx.LaunchSync("k", func(e *Exec) {
		for p := 0; p < 4; p++ {
			for i := int64(0); i < v.Len(); i++ {
				_ = v.Load(e, i)
			}
		}
	})
	t1 := ctx.Now()

	plat2 := testPlat()
	ctx2 := MustContext(plat2)
	b, _ := ctx2.MallocManaged(1<<16, "b")
	ctx2.Prefetch(b, machine.GPU)
	w := memsim.Float64s(b)
	ctx2.LaunchSync("k", func(e *Exec) {
		for p := 0; p < 4; p++ {
			for i := int64(0); i < w.Len(); i++ {
				_ = w.Load(e, i)
			}
		}
	})
	t2 := ctx2.Now()
	diff := float64(t1-t2) / float64(t2)
	if diff > 0.05 || diff < -0.05 {
		t.Errorf("oversized working set changed by %.1f%% with tiny L2", diff*100)
	}
}

func TestKernelProfileReturnsCopy(t *testing.T) {
	ctx := MustContext(testPlat())
	ctx.SetProfiling(true)
	a, _ := ctx.MallocManaged(64, "a")
	v := memsim.Float64s(a)
	ctx.LaunchSync("k0", func(e *Exec) { v.Store(e, 0, 1) })
	ctx.LaunchSync("k1", func(e *Exec) { v.Store(e, 0, 2) })

	recs := ctx.KernelProfile()
	if len(recs) != 2 {
		t.Fatalf("profile has %d records, want 2", len(recs))
	}
	// Mutating the returned slice must not affect later calls.
	recs[0].Name = "clobbered"
	recs = recs[:0]
	again := ctx.KernelProfile()
	if len(again) != 2 || again[0].Name != "k0" || again[1].Name != "k1" {
		t.Fatalf("profile aliased internal state: %+v", again)
	}
}

func TestTimelineEvents(t *testing.T) {
	ctx := MustContext(testPlat())
	a, _ := ctx.MallocManaged(8*1024, "a")
	v := memsim.Float64s(a)
	v.Store(ctx.Host(), 0, 1) // host access: aggregates into a window
	ctx.LaunchSync("k", func(e *Exec) {
		for i := int64(0); i < v.Len(); i++ {
			v.Store(e, i, float64(i))
		}
	})

	var kinds []timeline.Kind
	for _, ev := range ctx.Timeline().Events() {
		kinds = append(kinds, ev.Kind)
	}
	want := map[timeline.Kind]bool{
		timeline.KindAlloc:     false,
		timeline.KindHostPhase: false,
		timeline.KindKernel:    false,
		timeline.KindSync:      false,
	}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no %v event emitted (stream: %v)", k, kinds)
		}
	}

	// The kernel span carries the touched allocation and the fault window.
	kernels := ctx.Timeline().Kernels()
	if len(kernels) != 1 {
		t.Fatalf("kernel events: %d", len(kernels))
	}
	k := kernels[0]
	if len(k.Allocs) != 1 || k.Allocs[0] != a.ID {
		t.Errorf("kernel Allocs = %v, want [%d]", k.Allocs, a.ID)
	}
	if k.Faults == 0 || k.Drv.FaultsGPU == 0 {
		t.Errorf("kernel faults not aggregated: faults=%d drv=%+v", k.Faults, k.Drv)
	}
	// The host window before the kernel owns the CPU fault.
	var host *timeline.Event
	for _, ev := range ctx.Timeline().Events() {
		if ev.Kind == timeline.KindHostPhase {
			host = &ev
			break
		}
	}
	if host.Accesses != 1 || host.Dur <= 0 {
		t.Errorf("host window = %+v", host)
	}
	if host.End() > k.Start {
		t.Errorf("host window [%v,%v] not before kernel start %v", host.Start, host.End(), k.Start)
	}
}
