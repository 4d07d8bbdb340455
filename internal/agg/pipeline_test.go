package agg

import (
	"io"
	"runtime"
	"testing"
	"time"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// TestIngestSteadyStateAllocs pins the zero-allocation guarantee on the
// per-frame hot path: once the sinks are warm, decoding a batch frame
// and applying it through every sink under the proc's lock mallocs
// nothing. A regression here (a slice that escapes, a map that grows
// per frame) fails loudly rather than showing up as GC pressure on a
// loaded aggregator.
func TestIngestSteadyStateAllocs(t *testing.T) {
	g := New()
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

	fd := wire.NewFrameDecoder(nil, p.h)
	if err := fd.DecodePayload(allocFrame); err != nil {
		t.Fatal(err)
	}
	// Warmup: grow the sinks' per-entry state and the decoder's batch
	// buffer.
	for i := 0; i < 50; i++ {
		if err := fd.DecodePayload(batchFrame); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(100, func() {
		if err := fd.DecodePayload(batchFrame); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state ingest allocates %.2f objects per frame, want 0", avg)
	}
}

// TestBackpressureStallsConnection pins the backpressure edge: while
// the proc's lock is held, an ingesting stream must stall (and be
// counted stalling) instead of buffering without bound, so its writer —
// the client's connection — stalls too; and every record must apply
// once the lock is released.
func TestBackpressureStallsConnection(t *testing.T) {
	g := New()
	hello := wire.Hello{Tenant: "t", Process: "stall", Platform: "Intel+Pascal"}
	p := g.proc(hello)

	// A stream far larger than what the reader can buffer: 64 segments
	// of 256 two-record batch frames each.
	const segments, framesPerSeg = 64, 256
	var frames []byte
	for i := 0; i < framesPerSeg; i++ {
		frames = wire.AppendBatch(frames, []shadow.Access{
			{Dev: machine.GPU, Kind: memsim.Read, Size: 4, Addr: 0x100},
			{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x104},
		})
	}
	stream := wire.AppendSegment(wire.AppendHeader(nil), wire.SegHello, wire.AppendHello(nil, hello))
	for i := 0; i < segments; i++ {
		stream = wire.AppendSegment(stream, wire.SegFrames, frames)
	}

	p.mu.Lock() // what another stream's frame or a snapshot build does
	pr, pw := io.Pipe()
	written := make(chan error, 1)
	go func() {
		_, err := pw.Write(stream)
		pw.Close()
		written <- err
	}()
	done := make(chan error, 1)
	go func() { done <- g.Ingest(pr) }()

	// The stream's goroutine must hit the held lock and stall there.
	deadline := time.Now().Add(5 * time.Second)
	for p.stalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingest never stalled on the held proc lock")
		}
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("ingest finished (err=%v) while the proc's lock was held", err)
	case err := <-written:
		t.Fatalf("the whole stream was written (err=%v) while its ingest was stalled", err)
	default:
	}

	// Release the lock; everything must apply, nothing lost or
	// double-counted.
	p.mu.Unlock()
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_, records, _, _ := p.Stats()
	if want := int64(segments * framesPerSeg * 2); records != want {
		t.Fatalf("applied %d records, want %d", records, want)
	}
	if stalls := p.stalls.Load(); stalls == 0 {
		t.Fatal("stall counter reset unexpectedly")
	}
}

// TestDiagnosticFrameDropsFreedEntries pins the proc's interval rule
// through its locked frame handler: after a diagnostic frame the snapshot is the
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
			p := g.proc(wire.Hello{Tenant: "t", Process: name, Platform: "Intel+Pascal"})
			fd := wire.NewFrameDecoder(nil, p.h)
			if err := fd.DecodePayload(prefix); err != nil {
				t.Fatal(err)
			}
			if r := p.Report(); len(r.Allocs) != 2 || !r.Allocs[1].Freed || r.Allocs[1].WriteG != 1 {
				t.Fatalf("snapshot after the diagnostic frame = %+v, want the ended interval", r.Allocs)
			}
			if err := fd.DecodePayload(frame); err != nil {
				t.Fatal(err)
			}
			for _, e := range p.pl.Table().Entries() {
				if e.Freed && e.AllocID == 2 {
					t.Fatalf("freed entry %q survived a diagnostic frame and a %s frame", e.Label, name)
				}
			}
		})
	}
}
