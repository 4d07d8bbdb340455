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

// batchSink captures the records of every batch it is applied.
type batchSink struct{ records []shadow.Access }

func (s *batchSink) Apply(batch []shadow.Access, _ *record.Cursor) {
	s.records = append(s.records, batch...)
}

// TestSequentialFlushPoints records through the Sequential view, fewer
// calls than fill its slot, and then reaches one flush point of the
// Tracer: each must drain the view's slot before it acts, so the
// buffered accesses apply before the interception's own effect.
func TestSequentialFlushPoints(t *testing.T) {
	const words = 16
	// sweep records one access per word of a through the view.
	sweep := func(tr *Tracer, a *memsim.Alloc, dev machine.Device, kind memsim.AccessKind) {
		v := tr.Sequential()
		for w := 0; w < words; w++ {
			v.TraceAccess(dev, a, a.Base+memsim.Addr(w*shadow.WordSize), shadow.WordSize, kind)
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
				t.Error("Flush left the view's accesses buffered")
			}
		}},
		{"Pipeline", func(t *testing.T, tr *Tracer, a *memsim.Alloc) {
			seen := &batchSink{}
			tr.AddSink(seen)
			sweep(tr, a, machine.GPU, memsim.Write)
			tr.Pipeline()
			if len(seen.records) == 0 {
				t.Error("Pipeline left the view's accesses buffered")
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

// TestSequentialDrainsLikeSlot checks that the view's slot fills where
// an engine slot would: after 1024 calls, contiguous scalars included.
func TestSequentialDrainsLikeSlot(t *testing.T) {
	tr, sp := setup(t)
	a := alloc(t, sp, memsim.Managed, 1<<14, "a")
	tr.TraceAlloc(a)
	seen := &batchSink{}
	tr.AddSink(seen)
	v := tr.Sequential()
	for i := 0; i < 1024; i++ {
		v.TraceAccess(machine.CPU, a, a.Base+memsim.Addr(4*i), 4, memsim.Write)
	}
	want := shadow.Access{Dev: machine.CPU, Kind: memsim.Write, Size: 4, Addr: a.Base, Count: 1024, Stride: 4}
	if len(seen.records) != 1 || seen.records[0] != want {
		t.Errorf("after 1024 calls the view drained %+v, want [%+v]", seen.records, want)
	}
}
