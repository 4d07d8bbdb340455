package um

import (
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

// testPlatform returns a small, easily reasoned-about PCIe machine:
// 4 KiB pages, 16 KiB of GPU memory (4 pages).
func testPlatform() *machine.Platform {
	p := machine.IntelPascal().Clone()
	p.Name = "test"
	p.PageSize = 4096
	p.GPUMemory = 4 * 4096
	return p
}

func coherentPlatform() *machine.Platform {
	p := machine.IBMVolta().Clone()
	p.Name = "test-coherent"
	p.PageSize = 4096
	p.GPUMemory = 4 * 4096
	p.CounterMigrationThreshold = 4
	return p
}

func newDriver(t *testing.T, plat *machine.Platform) (*Driver, *memsim.Space) {
	t.Helper()
	sp := memsim.NewSpace(plat.PageSize)
	return NewDriver(plat, sp), sp
}

func managed(t *testing.T, d *Driver, sp *memsim.Space, size int64, label string) *memsim.Alloc {
	t.Helper()
	a, err := sp.Alloc(size, memsim.Managed, label)
	if err != nil {
		t.Fatal(err)
	}
	d.Register(a)
	return a
}

// access charges one element access of size bytes at addr the way
// cuda.Exec does: one call to Driver.Access, read words for a read and
// write words for a write or read-modify-write.
func access(d *Driver, dev machine.Device, a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind) Cost {
	pi := int32(int64(addr-a.Base) >> d.pageShift)
	words := (size + 3) / 4
	if kind == memsim.Read {
		return d.Access(dev, a, pi, words, 0, 1)
	}
	return d.Access(dev, a, pi, 0, words, 1)
}

func TestNewDriverRejectsMismatchedPageSize(t *testing.T) {
	plat := testPlatform()
	sp := memsim.NewSpace(8192)
	defer func() {
		if recover() == nil {
			t.Error("NewDriver accepted mismatched page sizes")
		}
	}()
	NewDriver(plat, sp)
}

func TestFirstTouchByCPUIsCheap(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	c := access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	if c.Serial != 0 {
		t.Errorf("CPU first touch serial cost %v, want 0", c.Serial)
	}
	if c.Local <= 0 {
		t.Error("CPU first touch has no local cost")
	}
	if s := d.Stats(); s.Faults() != 0 {
		t.Errorf("CPU first touch faulted: %+v", s)
	}
}

func TestFirstTouchByGPUFaults(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	c := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if c.Faults != 1 {
		t.Errorf("GPU first touch faults = %d, want 1", c.Faults)
	}
	if s := d.Stats(); s.FaultsGPU != 1 {
		t.Errorf("FaultsGPU = %d, want 1", s.FaultsGPU)
	}
	if d.GPUMemoryUsed() != 4096 {
		t.Errorf("GPU residency %d, want one page", d.GPUMemoryUsed())
	}
}

// A zero-size access still walks the page transitions: a GPU first touch
// faults and populates the page even though it charges no words.
func TestZeroSizeFirstTouchByGPUFaults(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	c := access(d, machine.GPU, a, a.Base, 0, memsim.Read)
	if c.Faults != 1 || c.Local != 0 || c.Remote != 0 {
		t.Errorf("zero-size GPU first touch cost %+v, want one fault and no access time", c)
	}
	if s := d.Stats(); s.FaultsGPU != 1 {
		t.Errorf("FaultsGPU = %d, want 1", s.FaultsGPU)
	}
	if d.GPUMemoryUsed() != 4096 {
		t.Errorf("GPU residency %d, want one page", d.GPUMemoryUsed())
	}
}

func TestPingPongMigration(t *testing.T) {
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 4096, "a")

	access(d, machine.CPU, a, a.Base, 8, memsim.Write) // first touch: CPU owns
	c1 := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if c1.Faults != 1 || c1.MigratedBytes != plat.PageSize {
		t.Errorf("GPU access to CPU page: %+v, want 1 fault + one page migrated", c1)
	}
	if c1.HostTime(plat) < plat.MigrationTime() {
		t.Errorf("host-folded cost %v, want >= migration %v", c1.HostTime(plat), plat.MigrationTime())
	}
	c2 := access(d, machine.GPU, a, a.Base+8, 8, memsim.Read)
	if c2.Faults != 0 || c2.MigratedBytes != 0 {
		t.Errorf("second GPU access should be local: %+v", c2)
	}
	c3 := access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	if c3.Faults != 1 || c3.MigratedBytes != plat.PageSize {
		t.Errorf("CPU re-access should migrate back: %+v", c3)
	}
	s := d.Stats()
	if s.MigrationsH2D != 1 || s.MigrationsD2H != 1 {
		t.Errorf("migrations = %d H2D, %d D2H; want 1,1", s.MigrationsH2D, s.MigrationsD2H)
	}
	if d.GPUMemoryUsed() != 0 {
		t.Errorf("page migrated home but GPU still holds %d bytes", d.GPUMemoryUsed())
	}
}

func TestReadMostlyDuplicatesAndInvalidates(t *testing.T) {
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 4096, "a")
	if err := d.Advise(a, AdviseSetReadMostly, machine.CPU); err != nil {
		t.Fatal(err)
	}

	access(d, machine.CPU, a, a.Base, 8, memsim.Write) // CPU owns
	// GPU read: creates a duplicate, CPU stays owner.
	c := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if c.Faults != 1 || c.MigratedBytes != plat.PageSize {
		t.Errorf("duplicate creation should fault and copy a page: %+v", c)
	}
	if d.Stats().Duplications != 1 {
		t.Errorf("Duplications = %d, want 1", d.Stats().Duplications)
	}
	// Further reads from both sides are local.
	if c := access(d, machine.GPU, a, a.Base+16, 8, memsim.Read); c.Faults != 0 || c.MigratedBytes != 0 {
		t.Errorf("GPU read with duplicate: %+v", c)
	}
	if c := access(d, machine.CPU, a, a.Base+16, 8, memsim.Read); c.Faults != 0 {
		t.Errorf("CPU (owner) read: %+v", c)
	}
	// CPU write invalidates the GPU copy.
	c = access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	if c.Serial < plat.ReadMostlyInvalidate {
		t.Errorf("invalidating write serial %v, want >= %v", c.Serial, plat.ReadMostlyInvalidate)
	}
	if d.Stats().Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", d.Stats().Invalidations)
	}
	if d.GPUMemoryUsed() != 0 {
		t.Errorf("invalidated duplicate still occupies GPU memory: %d", d.GPUMemoryUsed())
	}
	// GPU must re-duplicate after the invalidation.
	c = access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if c.Faults != 1 || c.MigratedBytes != plat.PageSize {
		t.Errorf("GPU read after invalidation should re-create the duplicate: %+v", c)
	}
	if d.Stats().Duplications != 2 {
		t.Errorf("Duplications = %d, want 2", d.Stats().Duplications)
	}
}

func TestReadMostlyWriteByNonOwnerMigrates(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	_ = d.Advise(a, AdviseSetReadMostly, machine.CPU)
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	access(d, machine.GPU, a, a.Base, 8, memsim.Read) // duplicate
	c := access(d, machine.GPU, a, a.Base, 8, memsim.Write)
	if c.Serial == 0 || c.Faults == 0 || c.MigratedBytes == 0 {
		t.Errorf("GPU write under ReadMostly should invalidate and migrate: %+v", c)
	}
	// Now the GPU owns the page exclusively.
	if c := access(d, machine.GPU, a, a.Base, 8, memsim.Write); c != (Cost{Local: c.Local}) {
		t.Errorf("GPU re-write should be purely local: %+v", c)
	}
}

func TestUnsetReadMostlyDropsDuplicates(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	_ = d.Advise(a, AdviseSetReadMostly, machine.CPU)
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if d.GPUMemoryUsed() != 4096 {
		t.Fatal("duplicate not resident")
	}
	_ = d.Advise(a, AdviseUnsetReadMostly, machine.CPU)
	if d.GPUMemoryUsed() != 0 {
		t.Errorf("UnsetReadMostly left %d bytes on GPU", d.GPUMemoryUsed())
	}
}

func TestPreferredLocationMapsInsteadOfMigrating(t *testing.T) {
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 4096, "a")
	_ = d.Advise(a, AdviseSetPreferredLocation, machine.CPU)

	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	// GPU access faults once, then maps and stays remote.
	c := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if c.Remote == 0 {
		t.Error("GPU access to preferred-CPU page should be remote")
	}
	if d.Stats().Migrations() != 0 {
		t.Errorf("migrations = %d, want 0", d.Stats().Migrations())
	}
	if d.Stats().Mappings != 1 {
		t.Errorf("mappings = %d, want 1", d.Stats().Mappings)
	}
	// Second GPU access: mapping established, no more faults.
	f := d.Stats().Faults()
	c = access(d, machine.GPU, a, a.Base+8, 8, memsim.Read)
	if d.Stats().Faults() != f {
		t.Error("mapped access faulted again")
	}
	if c.Remote == 0 {
		t.Error("mapped access should be remote")
	}
}

func TestAccessedByAvoidsFaults(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	_ = d.Advise(a, AdviseSetAccessedBy, machine.GPU)
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	c := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if d.Stats().Faults() != 0 {
		t.Errorf("AccessedBy GPU still faulted: %+v", d.Stats())
	}
	if c.Remote == 0 {
		t.Error("AccessedBy access should be remote, not migrated")
	}
	if d.Stats().Migrations() != 0 {
		t.Error("AccessedBy must not migrate")
	}
	// Unset restores the fault path.
	_ = d.Advise(a, AdviseUnsetAccessedBy, machine.GPU)
	access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if d.Stats().Faults() == 0 {
		t.Error("after UnsetAccessedBy the GPU should fault")
	}
}

func TestAdviseOnNonManagedFails(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a, _ := sp.Alloc(4096, memsim.DeviceOnly, "d")
	d.Register(a)
	if err := d.Advise(a, AdviseSetReadMostly, machine.CPU); err == nil {
		t.Error("advice on device-only memory should fail")
	}
}

func TestOversubscriptionEvicts(t *testing.T) {
	plat := testPlatform() // 4 pages of GPU memory
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 6*4096, "big")

	// GPU touches 6 pages; only 4 fit.
	for p := int64(0); p < 6; p++ {
		access(d, machine.GPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Write)
	}
	if d.GPUMemoryUsed() > plat.GPUMemory {
		t.Errorf("GPU over capacity: %d > %d", d.GPUMemoryUsed(), plat.GPUMemory)
	}
	s := d.Stats()
	if s.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", s.Evictions)
	}
	// Evicted pages migrated home.
	if s.MigrationsD2H < 2 {
		t.Errorf("evictions did not write pages back: %+v", s)
	}
	// Re-touching an evicted page thrashes (faults again).
	f := s.FaultsGPU
	access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if d.Stats().FaultsGPU != f+1 {
		t.Error("re-access of evicted page did not fault")
	}
}

func TestDeviceOnlyCountsAgainstGPUMemory(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a, _ := sp.Alloc(2*4096, memsim.DeviceOnly, "d")
	d.Register(a)
	if d.GPUMemoryUsed() != 2*4096 {
		t.Errorf("device alloc not accounted: %d", d.GPUMemoryUsed())
	}
	d.Unregister(a)
	if d.GPUMemoryUsed() != 0 {
		t.Errorf("unregister did not release: %d", d.GPUMemoryUsed())
	}
}

func TestDeviceOnlyAccessRules(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a, _ := sp.Alloc(4096, memsim.DeviceOnly, "d")
	d.Register(a)
	if c := access(d, machine.GPU, a, a.Base, 4, memsim.Read); c.Faults != 0 || c.Local <= 0 {
		t.Errorf("GPU access to device memory: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("CPU access to device-only memory did not panic")
		}
	}()
	access(d, machine.CPU, a, a.Base, 4, memsim.Read)
}

func TestHostOnlyAccessRules(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a, _ := sp.Alloc(4096, memsim.HostOnly, "h")
	d.Register(a)
	if c := access(d, machine.CPU, a, a.Base, 4, memsim.Write); c.Local <= 0 {
		t.Errorf("CPU access to host memory: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Error("GPU access to host-only memory did not panic")
		}
	}()
	access(d, machine.GPU, a, a.Base, 4, memsim.Read)
}

func TestCoherentPlatformDoesNotFault(t *testing.T) {
	plat := coherentPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 4096, "a")
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	c := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	if d.Stats().Faults() != 0 {
		t.Errorf("coherent platform faulted: %+v", d.Stats())
	}
	if c.Remote == 0 {
		t.Error("coherent cross-device access should be remote")
	}
}

func TestCounterMigration(t *testing.T) {
	// A threshold of 0 or less migrates at the first remote access.
	for _, threshold := range []int{4, 0, -1} {
		plat := coherentPlatform()
		plat.CounterMigrationThreshold = threshold
		d, sp := newDriver(t, plat)
		a := managed(t, d, sp, 4096, "a")
		access(d, machine.CPU, a, a.Base, 8, memsim.Write)
		for i := 0; i < max(threshold, 1); i++ {
			access(d, machine.GPU, a, a.Base+memsim.Addr(8*i), 8, memsim.Read)
		}
		if d.Stats().CounterMigrations != 1 {
			t.Errorf("threshold %d: CounterMigrations = %d, want 1 after threshold", threshold, d.Stats().CounterMigrations)
		}
		// Page is now GPU-local.
		if c := access(d, machine.GPU, a, a.Base, 8, memsim.Read); c.Remote != 0 || c.Faults != 0 {
			t.Errorf("threshold %d: post-migration GPU access: %+v", threshold, c)
		}
	}
}

// One call for a span of remote accesses charges what the same accesses
// charge one call each, wherever the counter migration falls in the span.
func TestSpanEqualsPerAccessSum(t *testing.T) {
	for _, threshold := range []int{0, 1, 3, 4, 9} {
		for _, n := range []int64{1, 3, 4, 6} {
			plat := coherentPlatform()
			plat.CounterMigrationThreshold = threshold
			span, spSpan := newDriver(t, plat)
			each, spEach := newDriver(t, plat)
			as := managed(t, span, spSpan, 4096, "a")
			ae := managed(t, each, spEach, 4096, "a")
			access(span, machine.CPU, as, as.Base, 8, memsim.Write)
			access(each, machine.CPU, ae, ae.Base, 8, memsim.Write)

			got := span.Access(machine.GPU, as, 0, 2*n, 0, n)
			var want Cost
			for i := int64(0); i < n; i++ {
				want.Add(access(each, machine.GPU, ae, ae.Base+memsim.Addr(8*i), 8, memsim.Read))
			}
			if got != want {
				t.Errorf("threshold %d, %d accesses: span cost %+v, per-access sum %+v", threshold, n, got, want)
			}
			if span.Stats() != each.Stats() {
				t.Errorf("threshold %d, %d accesses: span stats %+v, per-access %+v", threshold, n, span.Stats(), each.Stats())
			}
		}
	}
}

func TestTransferCharges(t *testing.T) {
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a, _ := sp.Alloc(8192, memsim.DeviceOnly, "d")
	d.Register(a)
	dur := d.Transfer(a, HostToDevice, 0, 8192)
	if dur < plat.TransferTime(8192) {
		t.Errorf("transfer duration %v < link time %v", dur, plat.TransferTime(8192))
	}
	s := d.Stats()
	if s.Transfers != 1 || s.BytesH2D != 8192 {
		t.Errorf("transfer stats %+v", s)
	}
	d.Transfer(a, DeviceToHost, 0, 100)
	if d.Stats().BytesD2H != 100 {
		t.Errorf("D2H bytes = %d", d.Stats().BytesD2H)
	}
}

func TestPrefetchMovesAllPages(t *testing.T) {
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 3*4096, "a")
	// CPU touches all pages first.
	for p := int64(0); p < 3; p++ {
		access(d, machine.CPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Write)
	}
	cost := d.Prefetch(a, machine.GPU)
	if cost <= 0 {
		t.Error("prefetch of CPU pages should cost transfer time")
	}
	if d.GPUMemoryUsed() != 3*4096 {
		t.Errorf("prefetch residency %d, want 3 pages", d.GPUMemoryUsed())
	}
	// GPU accesses are now local and fault-free.
	f := d.Stats().Faults()
	if c := access(d, machine.GPU, a, a.Base, 8, memsim.Read); c.Faults != 0 || d.Stats().Faults() != f {
		t.Error("post-prefetch GPU access not local")
	}
}

func TestAllocStatsAreSeparate(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	b := managed(t, d, sp, 4096, "b")
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	access(d, machine.GPU, a, a.Base, 8, memsim.Read) // migrate
	if d.AllocStats(a).MigrationsH2D != 1 {
		t.Errorf("a stats: %+v", d.AllocStats(a))
	}
	if d.AllocStats(b).MigrationsH2D != 0 {
		t.Errorf("b stats polluted: %+v", d.AllocStats(b))
	}
}

func TestStatsSub(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	snap := d.Stats()
	access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	delta := d.Stats().Sub(snap)
	if delta.FaultsGPU != 1 || delta.MigrationsH2D != 1 {
		t.Errorf("delta = %+v", delta)
	}
	if delta.FaultsCPU != 0 {
		t.Errorf("delta.FaultsCPU = %d, want 0", delta.FaultsCPU)
	}
}

func TestUnregisterReleasesManagedResidency(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 2*4096, "a")
	access(d, machine.GPU, a, a.Base, 8, memsim.Write)
	access(d, machine.GPU, a, a.Base+4096, 8, memsim.Write)
	if d.GPUMemoryUsed() != 2*4096 {
		t.Fatalf("residency %d", d.GPUMemoryUsed())
	}
	d.Unregister(a)
	if d.GPUMemoryUsed() != 0 {
		t.Errorf("unregister left %d bytes", d.GPUMemoryUsed())
	}
}

func TestAdviseRangeAffectsOnlyRange(t *testing.T) {
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 4*4096, "a")
	// ReadMostly on pages 0-1 only.
	if err := d.AdviseRange(a, 0, 2*4096, AdviseSetReadMostly, machine.CPU); err != nil {
		t.Fatal(err)
	}
	// CPU touches all pages, GPU reads all pages.
	for p := int64(0); p < 4; p++ {
		access(d, machine.CPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Write)
	}
	for p := int64(0); p < 4; p++ {
		access(d, machine.GPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Read)
	}
	s := d.Stats()
	// Pages 0-1 duplicate; pages 2-3 migrate.
	if s.Duplications != 2 {
		t.Errorf("duplications = %d, want 2", s.Duplications)
	}
	if s.MigrationsH2D != 2 {
		t.Errorf("H2D migrations = %d, want 2", s.MigrationsH2D)
	}
}

func TestAdviseRangeBounds(t *testing.T) {
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 4096, "a")
	for _, c := range []struct{ off, n int64 }{{-1, 10}, {0, 0}, {4000, 200}} {
		if err := d.AdviseRange(a, c.off, c.n, AdviseSetReadMostly, machine.CPU); err == nil {
			t.Errorf("range [%d,%d) accepted", c.off, c.off+c.n)
		}
	}
}

func TestAdviseRangeThenWholeAllocation(t *testing.T) {
	// A whole-allocation advise after a range advise overrides every page.
	d, sp := newDriver(t, testPlatform())
	a := managed(t, d, sp, 2*4096, "a")
	_ = d.AdviseRange(a, 0, 4096, AdviseSetPreferredLocation, machine.GPU)
	_ = d.Advise(a, AdviseSetPreferredLocation, machine.CPU)
	// Both pages should now behave preferred-CPU: the GPU maps rather than
	// migrating.
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	access(d, machine.CPU, a, a.Base+4096, 8, memsim.Write)
	access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	access(d, machine.GPU, a, a.Base+4096, 8, memsim.Read)
	if d.Stats().Migrations() != 0 {
		t.Errorf("migrations = %d, want 0 (both pages preferred-CPU)", d.Stats().Migrations())
	}
	if d.Stats().Mappings != 2 {
		t.Errorf("mappings = %d, want 2", d.Stats().Mappings)
	}
}

func TestAdviseRangePreferredSubRange(t *testing.T) {
	// Pin only page 1 to the CPU: page 0 ping-pongs, page 1 maps.
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 2*4096, "a")
	if err := d.AdviseRange(a, 4096, 4096, AdviseSetPreferredLocation, machine.CPU); err != nil {
		t.Fatal(err)
	}
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	access(d, machine.CPU, a, a.Base+4096, 8, memsim.Write)
	c0 := access(d, machine.GPU, a, a.Base, 8, memsim.Read)
	c1 := access(d, machine.GPU, a, a.Base+4096, 8, memsim.Read)
	if c0.MigratedBytes == 0 {
		t.Error("unadvised page should migrate")
	}
	if c1.MigratedBytes != 0 || c1.Remote == 0 {
		t.Errorf("advised page should map remotely: %+v", c1)
	}
}

func TestPrefetchThenReadMostly(t *testing.T) {
	// Prefetch to GPU, then ReadMostly: the CPU read duplicates instead of
	// migrating the page home.
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 4096, "a")
	access(d, machine.CPU, a, a.Base, 8, memsim.Write)
	d.Prefetch(a, machine.GPU)
	_ = d.Advise(a, AdviseSetReadMostly, machine.CPU)
	c := access(d, machine.CPU, a, a.Base, 8, memsim.Read)
	if d.Stats().Duplications != 1 {
		t.Errorf("duplications = %d, want 1 (CPU copy)", d.Stats().Duplications)
	}
	if c.MigratedBytes != plat.PageSize {
		t.Errorf("copy traffic = %d", c.MigratedBytes)
	}
	// The GPU's copy stays resident.
	if d.GPUMemoryUsed() != plat.PageSize {
		t.Errorf("GPU residency = %d", d.GPUMemoryUsed())
	}
}

func TestEvictionUnderReadMostly(t *testing.T) {
	// Read-duplicated pages beyond GPU capacity get their duplicates
	// dropped (free) rather than blowing the residency budget.
	plat := testPlatform() // 4 pages
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 6*4096, "a")
	_ = d.Advise(a, AdviseSetReadMostly, machine.CPU)
	for p := int64(0); p < 6; p++ {
		access(d, machine.CPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Write)
	}
	for p := int64(0); p < 6; p++ {
		access(d, machine.GPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Read)
	}
	if used := d.GPUMemoryUsed(); used > plat.GPUMemory {
		t.Errorf("residency %d over capacity %d", used, plat.GPUMemory)
	}
	if d.Stats().Duplications != 6 {
		t.Errorf("duplications = %d", d.Stats().Duplications)
	}
	if d.Stats().Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", d.Stats().Evictions)
	}
	// Dropping a duplicate writes nothing back.
	if d.Stats().MigrationsD2H != 0 {
		t.Errorf("duplicate eviction caused D2H migration: %+v", d.Stats())
	}
}

func TestQueueCompaction(t *testing.T) {
	// Drive enough fault-in/evict cycles to exercise the queue compaction
	// path (qHead > 4096).
	plat := testPlatform() // 4-page GPU
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 16*4096, "a")
	for i := 0; i < 3000; i++ {
		p := int64(i % 16)
		access(d, machine.GPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Write)
		access(d, machine.CPU, a, a.Base+memsim.Addr(((p+8)%16)*4096), 8, memsim.Write)
	}
	if used := d.GPUMemoryUsed(); used < 0 || used > plat.GPUMemory {
		t.Errorf("residency %d out of bounds", used)
	}
}

func TestTransferDirString(t *testing.T) {
	if HostToDevice.String() != "HostToDevice" || DeviceToHost.String() != "DeviceToHost" {
		t.Error("direction names wrong")
	}
}

func TestAdviceString(t *testing.T) {
	for adv, want := range map[Advice]string{
		AdviseSetReadMostly:          "SetReadMostly",
		AdviseUnsetReadMostly:        "UnsetReadMostly",
		AdviseSetPreferredLocation:   "SetPreferredLocation",
		AdviseUnsetPreferredLocation: "UnsetPreferredLocation",
		AdviseSetAccessedBy:          "SetAccessedBy",
		AdviseUnsetAccessedBy:        "UnsetAccessedBy",
	} {
		if adv.String() != want {
			t.Errorf("%d.String() = %q, want %q", adv, adv.String(), want)
		}
	}
}

func TestThrashDetection(t *testing.T) {
	// Cycling a 6-page working set through a 4-page GPU: re-faults after
	// eviction count as thrash events (the over-subscription signature).
	plat := testPlatform()
	d, sp := newDriver(t, plat)
	a := managed(t, d, sp, 6*4096, "big")
	for round := 0; round < 3; round++ {
		for p := int64(0); p < 6; p++ {
			access(d, machine.GPU, a, a.Base+memsim.Addr(p*4096), 8, memsim.Write)
		}
	}
	if d.Stats().Thrashes == 0 {
		t.Error("cyclic over-subscription produced no thrash events")
	}
	// A fitting working set never thrashes.
	d2, sp2 := newDriver(t, plat)
	b := managed(t, d2, sp2, 3*4096, "small")
	for round := 0; round < 3; round++ {
		for p := int64(0); p < 3; p++ {
			access(d2, machine.GPU, b, b.Base+memsim.Addr(p*4096), 8, memsim.Write)
		}
	}
	if d2.Stats().Thrashes != 0 {
		t.Errorf("fitting working set thrashed %d times", d2.Stats().Thrashes)
	}
}
