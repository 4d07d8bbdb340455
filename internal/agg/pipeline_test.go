package agg

import (
	"runtime"
	"testing"
	"time"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// drainProc spins until the proc's apply worker has applied every
// mutation enqueued so far. Test-only: production readers barrier
// through the queue (Proc.Report) instead of polling.
func drainProc(p *Proc) {
	for p.app.Load() != p.enq.Load() {
		runtime.Gosched()
	}
}

// TestIngestSteadyStateAllocs pins the zero-allocation guarantee on the
// per-frame hot path: once the pools are warm, decoding a batch frame,
// enqueueing it, applying it through every sink, and recycling the
// buffers mallocs nothing. A regression here (a dropped pool, a slice
// that escapes, a map that grows per frame) fails loudly rather than
// showing up as GC pressure on a loaded aggregator.
func TestIngestSteadyStateAllocs(t *testing.T) {
	g := New()
	defer g.Close()
	p := g.proc(wire.Hello{Tenant: "t", Process: "allocs", Platform: "Intel+Pascal"})

	const base = memsim.Addr(0x10000)
	const words = 1024

	// A representative batch against one device allocation: scalar GPU
	// reads walking the buffer plus one RLE write sweep. Same addresses
	// every frame, so after warmup no sink grows state.
	var batch []shadow.Access
	for i := 0; i < 256; i++ {
		batch = append(batch, shadow.Access{
			Dev: machine.GPU, Kind: memsim.Read, Size: 4,
			Addr: base + memsim.Addr(i*4),
		})
	}
	batch = append(batch, shadow.Access{
		Dev: machine.GPU, Kind: memsim.Write, Size: 4,
		Addr: base, Count: words, Stride: 4,
	})

	allocFrame := wire.AppendAlloc(nil, wire.AllocInfo{
		ID: 1, Base: base, Size: words * 4, Kind: memsim.DeviceOnly,
		Label: "buf", Fn: "cudaMalloc",
	})
	batchFrame := wire.AppendBatch(nil, batch)

	fd := wire.NewFrameDecoder(nil, g.streamHandler(p))
	fd.SetBatchPool(g.batches)
	if err := fd.DecodePayload(allocFrame); err != nil {
		t.Fatal(err)
	}
	// Warmup: grow the sinks' per-entry state and populate the item and
	// batch freelists (a couple of un-drained decodes so more than one
	// item circulates).
	for i := 0; i < 50; i++ {
		if err := fd.DecodePayload(batchFrame); err != nil {
			t.Fatal(err)
		}
	}
	drainProc(p)

	avg := testing.AllocsPerRun(100, func() {
		if err := fd.DecodePayload(batchFrame); err != nil {
			t.Fatal(err)
		}
		drainProc(p)
	})
	if avg != 0 {
		t.Fatalf("steady-state ingest allocates %.2f objects per frame, want 0", avg)
	}
}

// TestBackpressureStallsConnection pins the backpressure edge: with the
// apply worker wedged and a depth-1 queue, an ingesting decode goroutine
// must stall (and be counted stalling) instead of buffering without
// bound — and must deliver every record once the worker resumes.
func TestBackpressureStallsConnection(t *testing.T) {
	g := New(WithQueueDepth(1))
	defer g.Close()
	p := g.proc(wire.Hello{Tenant: "t", Process: "stall", Platform: "Intel+Pascal"})

	// Wedge the worker: a snapshot request with an unbuffered reply
	// channel blocks apply until the test reads from it. (Production
	// snapshot requests are buffered for exactly this reason.)
	wedge := make(chan *Snapshot)
	it := g.item()
	it.kind = itemSnapshot
	it.snap = wedge
	p.enqueue(it)

	// Feed frames from a decode goroutine, like one TCP connection.
	const frames = 16
	batchFrame := wire.AppendBatch(nil, []shadow.Access{
		{Dev: machine.GPU, Kind: memsim.Read, Size: 4, Addr: 0x100},
		{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x104},
	})
	fd := wire.NewFrameDecoder(nil, g.streamHandler(p))
	fd.SetBatchPool(g.batches)
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < frames && err == nil; i++ {
			err = fd.DecodePayload(batchFrame)
		}
		done <- err
	}()

	// The decoder must hit the full queue and stall there.
	deadline := time.Now().Add(5 * time.Second)
	for p.stalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decode goroutine never stalled on the full apply queue")
		}
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("ingest finished (err=%v) while the apply worker was wedged", err)
	default:
	}

	// Release the worker; everything queued and everything still to be
	// decoded must apply, nothing lost or double-counted.
	<-wedge
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep := p.Report() // barriers on the queue
	_, records, _, _ := p.Stats()
	if want := int64(frames * 2); records != want {
		t.Fatalf("applied %d records, want %d", records, want)
	}
	if stalls := p.stalls.Load(); stalls == 0 {
		t.Fatal("stall counter reset unexpectedly")
	}
	_ = rep
}

// TestDiagnosticFrameDropsFreedEntries pins the proc's interval rule
// through the apply queue: after a diagnostic frame the snapshot is the
// interval it ended (freed entry included, also past a clock frame),
// and once any state-changing frame follows, no freed entry is left in
// the proc's table.
func TestDiagnosticFrameDropsFreedEntries(t *testing.T) {
	var prefix []byte
	prefix = wire.AppendAlloc(prefix, wire.AllocInfo{ID: 1, Base: 0x1000, Size: 64, Kind: memsim.Managed, Label: "a"})
	prefix = wire.AppendAlloc(prefix, wire.AllocInfo{ID: 2, Base: 0x2000, Size: 64, Kind: memsim.Managed, Label: "tmp"})
	prefix = wire.AppendBatch(prefix, []shadow.Access{{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x2000}})
	prefix = wire.AppendFree(prefix, 2)
	prefix = wire.AppendDiagnostic(prefix, "step 1")
	prefix = wire.AppendClock(prefix, 100)
	next := map[string][]byte{
		"batch":      wire.AppendBatch(nil, []shadow.Access{{Dev: machine.CPU, Kind: memsim.Read, Size: 4, Addr: 0x1000}}),
		"alloc":      wire.AppendAlloc(nil, wire.AllocInfo{ID: 3, Base: 0x3000, Size: 64, Kind: memsim.Managed}),
		"free":       wire.AppendFree(nil, 1),
		"label":      wire.AppendLabel(nil, 1, "b"),
		"transfer":   wire.AppendTransfer(nil, wire.TransferInfo{ID: 1, Dir: wire.HostToDevice, N: 64}),
		"span":       wire.AppendSpan(nil, "k", 200),
		"diagnostic": wire.AppendDiagnostic(nil, "step 2"),
	}
	for name, frame := range next {
		t.Run(name, func(t *testing.T) {
			g := New()
			defer g.Close()
			p := g.proc(wire.Hello{Tenant: "t", Process: name, Platform: "Intel+Pascal"})
			fd := wire.NewFrameDecoder(nil, g.streamHandler(p))
			fd.SetBatchPool(g.batches)
			if err := fd.DecodePayload(prefix); err != nil {
				t.Fatal(err)
			}
			if r := p.Report(); len(r.Allocs) != 2 || !r.Allocs[1].Freed || r.Allocs[1].WriteG != 1 {
				t.Fatalf("snapshot after the diagnostic frame = %+v, want the ended interval", r.Allocs)
			}
			if err := fd.DecodePayload(frame); err != nil {
				t.Fatal(err)
			}
			drainProc(p)
			for _, e := range p.pl.Table().Entries() {
				if e.Freed && e.AllocID == 2 {
					t.Fatalf("freed entry %q survived a diagnostic frame and a %s frame", e.Label, name)
				}
			}
		})
	}
}
