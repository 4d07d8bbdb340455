package pipeline

import (
	"reflect"
	"testing"

	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// TestFrameSemantics drives every frame kind through Handler and checks
// the report: hostile or overlapping allocs are skipped, labels, frees
// and transfers land on the entry, spans carry their frame times, and
// heat-map epochs rotate on the stream clock.
func TestFrameSemantics(t *testing.T) {
	p := New()
	p.EnableHeatmap(100, p.Now)
	p.EnablePatterns(p.Now)
	h := p.Handler()
	h.Alloc(wire.AllocInfo{ID: 1, Base: 0x1000, Size: 64, Kind: memsim.Managed, Label: "a", Fn: "cudaMallocManaged"})
	h.Alloc(wire.AllocInfo{ID: 2, Base: 0x1020, Size: 64, Kind: memsim.Managed}) // overlaps 1
	h.Alloc(wire.AllocInfo{ID: 3, Base: 0x100000, Size: maxAllocBytes + 1})      // over the bound
	h.Alloc(wire.AllocInfo{ID: 4, Base: 0x200000, Size: -1})
	h.Label(1, "renamed")
	h.Clock(50)
	h.Batch([]shadow.Access{{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x1000, Count: 16, Stride: 4}})
	h.Span("k1", 150)
	h.Batch([]shadow.Access{{Dev: machine.CPU, Kind: memsim.Read, Size: 4, Addr: 0x1000}})
	h.Transfer(wire.TransferInfo{ID: 1, Dir: wire.DeviceToHost, Off: 0, N: 64})
	h.Transfer(wire.TransferInfo{ID: 9, Dir: wire.HostToDevice, Off: 0, N: 64})
	h.Free(1)

	r := p.Report("t", machine.IntelPascal())
	if r.Title != "t" || len(r.Allocs) != 1 {
		t.Fatalf("report %q has %d allocations, want 1", r.Title, len(r.Allocs))
	}
	a := r.Allocs[0]
	if a.Label != "renamed" || !a.Freed || a.WriteG != 16 || a.ReadGC != 16 || a.TransferredOut != 64 {
		t.Errorf("allocation summary = %+v", a)
	}
	if p.Now() != 150 {
		t.Errorf("stream clock = %v, want 150", p.Now())
	}
	spans := p.Patterns().Spans()
	if len(spans) != 2 || spans[1].Name != "k1" || spans[1].Start != 150 {
		t.Errorf("spans = %+v, want (start) then k1 at 150", spans)
	}
	if r.Heatmap.Epoch != 1 || len(r.Heatmap.History) != 1 || r.Heatmap.History[0].GPUAccesses != 16 {
		t.Errorf("heat map epoch %d, history %+v; want the first batch closed in epoch 0", r.Heatmap.Epoch, r.Heatmap.History)
	}
}

// TestDiagnosticFrameResetsLazily pins the stream reader's interval
// rule: a diagnostic frame leaves the table as the interval it ended
// (a clock frame does too), and the next state-changing frame resets
// it, dropping freed entries. A second diagnostic frame in a row resets
// the first interval and ends an empty one, as Diagnostic does live.
func TestDiagnosticFrameResetsLazily(t *testing.T) {
	plat := machine.IntelPascal()
	live, reader := New(), New()
	h := reader.Handler()
	both := func(f func(h wire.Handler)) {
		f(wire.Handler{
			Batch: func(b []shadow.Access) { live.Apply(b, nil) },
			Alloc: func(a wire.AllocInfo) { _ = live.Alloc(a) },
			Free:  live.Free,
		})
		f(h)
	}
	both(func(h wire.Handler) {
		h.Alloc(wire.AllocInfo{ID: 1, Base: 0x1000, Size: 64, Kind: memsim.Managed, Label: "a"})
		h.Alloc(wire.AllocInfo{ID: 2, Base: 0x2000, Size: 64, Kind: memsim.Managed, Label: "tmp"})
		h.Batch([]shadow.Access{
			{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x1000, Count: 16, Stride: 4},
			{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x2000, Count: 16, Stride: 4},
		})
		h.Free(2)
	})
	check := func(step string, want diag.Report) {
		t.Helper()
		got := reader.Report(want.Title, plat)
		if !reflect.DeepEqual(got.Allocs, want.Allocs) || !reflect.DeepEqual(got.Findings, want.Findings) {
			t.Fatalf("%s: reader holds %+v, want the live diagnostic's %+v", step, got.Allocs, want.Allocs)
		}
	}

	want := live.Diagnostic("d1", detect.DefaultOptions())
	h.Diagnostic("d1")
	h.Clock(10)
	if len(want.Allocs) != 2 || !want.Allocs[1].Freed {
		t.Fatalf("live interval 1 = %+v, want a and the freed tmp", want.Allocs)
	}
	check("after d1 and a clock frame", want)

	want = live.Diagnostic("d2", detect.DefaultOptions())
	h.Diagnostic("d2")
	if len(want.Allocs) != 1 || want.Allocs[0].WriteG != 0 {
		t.Fatalf("live interval 2 = %+v, want a alone with no accesses", want.Allocs)
	}
	check("after two diagnostics in a row", want)

	both(func(h wire.Handler) {
		h.Batch([]shadow.Access{{Dev: machine.CPU, Kind: memsim.Read, Size: 4, Addr: 0x1000, Count: 16, Stride: 4}})
	})
	want = live.Diagnostic("d3", detect.DefaultOptions())
	h.Diagnostic("d3")
	if len(want.Allocs) != 1 || want.Allocs[0].ReadGC != 16 {
		t.Fatalf("live interval 3 = %+v, want 16 GPU-origin CPU reads of a", want.Allocs)
	}
	check("after a batch and d3", want)
}
