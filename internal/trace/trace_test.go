package trace

import (
	"testing"

	"xplacer/internal/detect"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/um"
)

func setup(t *testing.T) (*Tracer, *memsim.Space) {
	t.Helper()
	return New(), memsim.NewSpace(4096)
}

func alloc(t *testing.T, sp *memsim.Space, kind memsim.Kind, size int64, label string) *memsim.Alloc {
	t.Helper()
	a, err := sp.Alloc(size, kind, label)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTraceAllocCreatesEntry(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 128, "a")
	tr.TraceAlloc(a)
	if tr.Table().Len() != 1 {
		t.Fatalf("table len = %d", tr.Table().Len())
	}
	e := tr.Table().Entries()[0]
	if e.AllocFn != "cudaMallocManaged" {
		t.Errorf("alloc fn = %q", e.AllocFn)
	}
	d := alloc(t, sp, memsim.DeviceOnly, 64, "d")
	tr.TraceAlloc(d)
	if fn := tr.Table().Entries()[1].AllocFn; fn != "cudaMalloc" {
		t.Errorf("device alloc fn = %q", fn)
	}
	if tr.Stats().Allocs != 2 {
		t.Errorf("alloc count = %d", tr.Stats().Allocs)
	}
}

func TestTraceAccessRecordsAndCounts(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 64, "a")
	tr.TraceAlloc(a)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.Read)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.ReadWrite)
	st := tr.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.ReadWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
	b := tr.Table().Entries()[0].Shadow[0]
	if b&shadow.CPUWrote == 0 || b&shadow.GPUWrote == 0 || b&shadow.ReadCG == 0 {
		t.Errorf("shadow = %08b", b)
	}
}

func TestUntrackedAccessCounted(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 64, "a")
	tr.TraceAlloc(a)
	tr.TraceAccess(machine.CPU, a, a.End()+1000, 4, memsim.Read)
	if tr.Stats().Untracked != 1 {
		t.Errorf("untracked = %d", tr.Stats().Untracked)
	}
}

func TestDisabledTracerSkipsAccesses(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 64, "a")
	tr.TraceAlloc(a)
	tr.SetEnabled(false)
	if tr.Enabled() {
		t.Fatal("still enabled")
	}
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	if tr.Stats().Writes != 0 {
		t.Error("disabled tracer recorded an access")
	}
	if tr.Table().Entries()[0].Shadow[0] != 0 {
		t.Error("disabled tracer touched shadow memory")
	}
}

func TestTraceFreeDelaysShadowRelease(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 64, "tmp")
	tr.TraceAlloc(a)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.Write)
	tr.TraceFree(a)
	if tr.Stats().Frees != 1 {
		t.Error("free not counted")
	}
	// Entry survives, marked freed, until the table reset (diagnostic).
	if tr.Table().Len() != 1 || !tr.Table().Entries()[0].Freed {
		t.Error("freed entry handling wrong")
	}
	tr.Table().Reset()
	if tr.Table().Len() != 0 {
		t.Error("freed entry survived the diagnostic")
	}
}

func TestTraceTransferDirections(t *testing.T) {
	tr, sp := setup(t)
	d := alloc(t, sp, memsim.DeviceOnly, 256, "d")
	tr.TraceAlloc(d)
	tr.TraceTransfer(d, um.HostToDevice, 0, 128)
	tr.TraceTransfer(d, um.DeviceToHost, 64, 64)
	e := tr.Table().Entries()[0]
	if e.TransferredIn != 128 || e.TransferredOut != 64 {
		t.Errorf("transfers = %d in, %d out", e.TransferredIn, e.TransferredOut)
	}
	// H2D marks CPU writes on words 0..31; D2H marks CPU reads on 16..31.
	if e.Shadow[0]&shadow.CPUWrote == 0 || e.Shadow[31]&shadow.CPUWrote == 0 {
		t.Error("H2D range not marked as CPU writes")
	}
	if e.Shadow[32]&shadow.CPUWrote != 0 {
		t.Error("H2D mark spilled past the range")
	}
	if e.Shadow[16]&shadow.ReadCC == 0 {
		t.Error("D2H range not marked as CPU reads")
	}
	st := tr.Stats()
	if st.TransfersH2D != 1 || st.TransfersD2H != 1 {
		t.Errorf("transfer stats = %+v", st)
	}
}

// TestTransferMissCountsUntracked: a transfer whose range is not in the
// SMT used to be dropped silently; it must count as untracked.
func TestTransferMissCountsUntracked(t *testing.T) {
	tr, sp := setup(t)
	d := alloc(t, sp, memsim.DeviceOnly, 64, "d")
	// Not TraceAlloc'd: the SMT has no entry for the range.
	tr.TraceTransfer(d, um.HostToDevice, 0, 64)
	st := tr.Stats()
	if st.TransfersH2D != 1 {
		t.Errorf("transfers = %+v", st)
	}
	if st.Untracked != 1 {
		t.Errorf("untracked = %d, want 1 (transfer range missed the SMT)", st.Untracked)
	}
	// A tracked transfer does not inflate the count.
	tr.TraceAlloc(d)
	tr.TraceTransfer(d, um.DeviceToHost, 0, 64)
	if got := tr.Stats().Untracked; got != 1 {
		t.Errorf("untracked after tracked transfer = %d, want 1", got)
	}
}

func TestTransferWhileDisabled(t *testing.T) {
	tr, sp := setup(t)
	d := alloc(t, sp, memsim.DeviceOnly, 64, "d")
	tr.TraceAlloc(d)
	tr.SetEnabled(false)
	tr.TraceTransfer(d, um.HostToDevice, 0, 64)
	if tr.Table().Entries()[0].TransferredIn != 0 {
		t.Error("disabled tracer recorded a transfer")
	}
}

func TestKernelLaunchCounted(t *testing.T) {
	tr, _ := setup(t)
	tr.TraceKernelLaunch("k1")
	tr.TraceKernelLaunch("k2")
	if tr.Stats().Kernels != 2 {
		t.Errorf("kernels = %d", tr.Stats().Kernels)
	}
}

func TestName(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 64, "")
	tr.TraceAlloc(a)
	tr.Name(a, "(dom)->m_x")
	if got := tr.Table().Entries()[0].Label; got != "(dom)->m_x" {
		t.Errorf("label = %q", got)
	}
}

func TestDoubleAllocPanics(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 64, "a")
	tr.TraceAlloc(a)
	defer func() {
		if recover() == nil {
			t.Error("overlapping TraceAlloc did not panic")
		}
	}()
	tr.TraceAlloc(a)
}

// batchSink captures the records of every batch it is applied.
type batchSink struct{ records []shadow.Access }

func (s *batchSink) Apply(batch []shadow.Access, _ *record.Cursor) {
	s.records = append(s.records, batch...)
}

// TestTracerFlushPoints records fewer accesses than fill the tracer's
// slot, and then reaches one flush point of the Tracer: each must drain
// the slot before it acts, so the buffered accesses apply before the
// interception's own effect.
func TestTracerFlushPoints(t *testing.T) {
	const words = 16
	// sweep records one access per word of a.
	sweep := func(tr *Tracer, a *memsim.Alloc, dev machine.Device, kind memsim.AccessKind) {
		for w := 0; w < words; w++ {
			tr.TraceAccess(dev, a, a.Base+memsim.Addr(w*shadow.WordSize), shadow.WordSize, kind)
		}
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T, tr *Tracer, a *memsim.Alloc)
	}{
		{"Flush", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			seen := &batchSink{}
			tr.AddSink(seen)
			sweep(tr, a, machine.GPU, memsim.Write)
			tr.Flush()
			if len(seen.records) == 0 {
				t.Error("Flush left the accesses buffered")
			}
		}},
		{"Pipeline", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			seen := &batchSink{}
			tr.AddSink(seen)
			sweep(tr, a, machine.GPU, memsim.Write)
			tr.Pipeline()
			if len(seen.records) == 0 {
				t.Error("Pipeline left the accesses buffered")
			}
		}},
		{"Table", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			sweep(tr, a, machine.CPU, memsim.Write)
			if b := tr.Table().Entries()[0].Shadow[words-1]; b&shadow.CPUWrote == 0 {
				t.Errorf("Table shows word %d as %08b, want CPUWrote", words-1, b)
			}
		}},
		{"TraceFree", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			sweep(tr, a, machine.GPU, memsim.Write)
			tr.TraceFree(a)
			e := tr.Table().Entries()[0]
			if !e.Freed || e.Shadow[0]&shadow.GPUWrote == 0 {
				t.Errorf("freed entry: freed %v, word 0 %08b; want the writes before the free", e.Freed, e.Shadow[0])
			}
			if u := tr.Stats().Untracked; u != 0 {
				t.Errorf("%d accesses missed the freed entry", u)
			}
		}},
		{"TraceTransfer", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			// A GPU write, drained, makes the GPU the origin; the GPU
			// reads must then apply before the H2D copy's CPU writes.
			sweep(tr, a, machine.GPU, memsim.Write)
			tr.Flush()
			sweep(tr, a, machine.GPU, memsim.Read)
			tr.TraceTransfer(a, um.HostToDevice, 0, a.Size)
			want := shadow.GPUWrote | shadow.ReadGG | shadow.CPUWrote
			if b := tr.Table().Entries()[0].Shadow[0]; b != want {
				t.Errorf("word 0 = %08b, want %08b (GPU read, then the copy's CPU write)", b, want)
			}
		}},
		{"TraceKernelLaunch", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			ps := tr.EnablePatterns(nil)
			tr.TraceKernelLaunch("first")
			sweep(tr, a, machine.GPU, memsim.Read)
			tr.TraceKernelLaunch("second")
			tr.Flush()
			rows := ps.Rows()
			if len(rows) != 1 || rows[0].Span != "first" {
				t.Errorf("pattern rows %+v, want one row in span \"first\"", rows)
			}
		}},
		{"Diagnostic", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			sweep(tr, a, machine.CPU, memsim.Write)
			r := tr.Diagnostic("d", detect.DefaultOptions())
			if len(r.Allocs) != 1 || r.Allocs[0].WriteC != words {
				t.Errorf("diagnostic allocs %+v, want %d CPU-written words", r.Allocs, words)
			}
		}},
		{"Stats", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			sweep(tr, a, machine.GPU, memsim.Read)
			sweep(tr, a, machine.CPU, memsim.Write)
			sweep(tr, a, machine.GPU, memsim.ReadWrite)
			if st := tr.Stats(); st.Reads != words || st.Writes != words || st.ReadWrites != words {
				t.Errorf("stats = %+v, want %d of each kind", st, words)
			}
		}},
		{"AddSink", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			sweep(tr, a, machine.CPU, memsim.Write)
			late := &batchSink{}
			tr.AddSink(late)
			sweep(tr, a, machine.GPU, memsim.Read)
			tr.Flush()
			if len(late.records) != 1 || late.records[0].Dev != machine.GPU {
				t.Errorf("late sink saw %+v, want only the GPU sweep", late.records)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, sp := setup(t)
			a := alloc(t, sp, memsim.Managed, words*shadow.WordSize, "a")
			tr.TraceAlloc(a)
			c.run(t, tr, a)
		})
	}
}

// TestTracerDrainsLikeSlot checks that the tracer's slot fills where an
// engine slot would: after 1024 calls, contiguous scalars included.
func TestTracerDrainsLikeSlot(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 1<<14, "a")
	tr.TraceAlloc(a)
	seen := &batchSink{}
	tr.AddSink(seen)
	for i := 0; i < 1024; i++ {
		tr.TraceAccess(machine.CPU, a, a.Base+memsim.Addr(4*i), 4, memsim.Write)
	}
	want := shadow.Access{Dev: machine.CPU, Kind: memsim.Write, Size: 4, Addr: a.Base, Count: 1024, Stride: 4}
	if len(seen.records) != 1 || seen.records[0] != want {
		t.Errorf("after 1024 calls the tracer drained %+v, want [%+v]", seen.records, want)
	}
}
