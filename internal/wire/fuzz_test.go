package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// sampleBatch builds a deterministic mixed batch (scalars and RLE runs).
func sampleBatch(n int, base memsim.Addr) []shadow.Access {
	batch := make([]shadow.Access, n)
	for i := range batch {
		a := &batch[i]
		a.Dev = machine.Device(i % 2)
		a.Kind = memsim.AccessKind(i % 3)
		a.Size = 4
		a.Addr = base + memsim.Addr(i*8)
		if i%3 == 0 {
			a.Count = int32(2 + i%30)
			a.Stride = 8
		}
	}
	return batch
}

// sampleStream encodes one complete valid stream exercising every frame
// and segment kind.
func sampleStream() []byte {
	buf := AppendHeader(nil)
	buf = AppendSegment(buf, SegHello, AppendHello(nil, Hello{
		Tenant: "t0", Process: "app", Platform: "Intel+Pascal", Policy: 0,
	}))
	var frames []byte
	frames = AppendAlloc(frames, AllocInfo{ID: 1, Base: 0x1000, Size: 4096, Kind: memsim.Managed, Label: "xs", Fn: "cudaMallocManaged"})
	frames = AppendClock(frames, 100)
	frames = AppendSpan(frames, "kernel_0", 200)
	frames = AppendBatch(frames, sampleBatch(300, 0x1000))
	frames = AppendLabel(frames, 1, "renamed")
	frames = AppendTransfer(frames, TransferInfo{ID: 1, Dir: DeviceToHost, Off: 16, N: 128})
	frames = AppendFree(frames, 1)
	frames = AppendDiagnostic(frames, "step 1")
	buf = AppendSegment(buf, SegFrames, frames)
	buf = AppendSegment(buf, SegBye, AppendBye(nil, Bye{Batches: 1, Records: 300}))
	return buf
}

// countingHandler counts decoded frames and asserts the decoder's
// allocation bounds hold for everything it hands out.
func countingHandler(t *testing.T) (StreamHandler, *int) {
	n := new(int)
	fh := Handler{
		Batch: func(b []shadow.Access) {
			if len(b) > MaxFrameRecords {
				t.Fatalf("decoder produced %d-record batch (cap %d)", len(b), MaxFrameRecords)
			}
			*n++
		},
		Span: func(name string, _ machine.Duration) {
			if len(name) > MaxNameLen {
				t.Fatalf("decoder produced %d-byte name (cap %d)", len(name), MaxNameLen)
			}
			*n++
		},
		Clock: func(machine.Duration) { *n++ },
		Alloc: func(a AllocInfo) {
			if len(a.Label) > MaxNameLen || len(a.Fn) > MaxNameLen {
				t.Fatalf("decoder produced oversized alloc strings (%d, %d)", len(a.Label), len(a.Fn))
			}
			*n++
		},
		Free:     func(int) { *n++ },
		Label:    func(int, string) { *n++ },
		Transfer: func(TransferInfo) { *n++ },
		Diagnostic: func(title string) {
			if len(title) > MaxNameLen {
				t.Fatalf("decoder produced %d-byte title (cap %d)", len(title), MaxNameLen)
			}
			*n++
		},
	}
	return StreamHandler{
		Hello: func(h Hello) (Handler, error) {
			if len(h.Tenant) > MaxNameLen || len(h.Process) > MaxNameLen || len(h.Platform) > MaxNameLen {
				t.Fatal("decoder produced oversized hello strings")
			}
			return fh, nil
		},
		Bye: func(Bye) { *n++ },
	}, n
}

// FuzzDecodeStream pins the decoder's robustness contract: arbitrary
// input must never panic and never hand oversized data to the handler;
// it either decodes or returns an error.
func FuzzDecodeStream(f *testing.F) {
	valid := sampleStream()
	f.Add(valid)
	// Truncations at interesting depths: inside the header, inside the
	// hello, at a segment boundary, mid-frame, mid-checksum.
	for _, n := range []int{0, 2, 5, 9, len(valid) / 4, len(valid) / 2, len(valid) - 3, len(valid) - 1} {
		if n >= 0 && n < len(valid) {
			f.Add(valid[:n])
		}
	}
	// Bit flips: corrupt the magic, a segment tag, a length varint, a
	// frame tag, and the checksum.
	for _, i := range []int{0, 5, 7, 12, len(valid) / 2, len(valid) - 2} {
		if i < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	// Adversarial lengths: huge segment length, huge batch count.
	f.Add(append(AppendHeader(nil), SegHello, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte("XPLT\x01\x11\x06\x01\xff\xff\xff\x7f\x00\x00"))
	f.Add([]byte("not a trace at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, _ := countingHandler(t)
		_ = ReadStream(bytes.NewReader(data), h)
	})
}

// TestStreamRoundTrip checks a StreamSink-produced stream decodes back
// to exactly the applied events, in order.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	clock := machine.Duration(0)
	ss, err := NewStreamSink(&buf, Config{
		Hello:        Hello{Tenant: "t", Process: "p", Platform: "Intel+Pascal", Policy: byte(Block)},
		SegmentBytes: 512, // force many segments
		Clock:        func() machine.Duration { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}

	type event struct {
		kind  string
		batch []shadow.Access
		name  string
		id    int
		at    machine.Duration
	}
	var want []event
	for i := 0; i < 20; i++ {
		clock += 50
		if i%3 != 0 {
			// Span stamps the clock itself, so the following Apply
			// emits no separate clock frame.
			ss.Span("k")
			want = append(want, event{kind: "span", name: "k", at: clock})
		}
		b := sampleBatch(80+i, memsim.Addr(0x1000+i*0x100))
		ss.Apply(b, nil)
		if i%3 == 0 {
			want = append(want, event{kind: "clock", at: clock})
		}
		want = append(want, event{kind: "batch", batch: b})
		if i%5 == 0 {
			ss.Alloc(AllocInfo{ID: i, Base: memsim.Addr(0x100000 + i), Size: 64, Kind: memsim.DeviceOnly, Label: "x", Fn: "cudaMalloc"})
			want = append(want, event{kind: "alloc", id: i})
			ss.Free(i)
			want = append(want, event{kind: "free", id: i})
			ss.Diagnostic("d")
			want = append(want, event{kind: "diagnostic", name: "d"})
		}
	}
	// A batch over MaxFrameRecords splits across frames and decodes back
	// intact.
	clock += 50
	big := sampleBatch(MaxFrameRecords+100, 0x200000)
	ss.Apply(big, nil)
	want = append(want, event{kind: "clock", at: clock}, event{kind: "batch", batch: big})
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	var got []event
	var gotHello *Hello
	var gotBye *Bye
	err = ReadStream(bytes.NewReader(buf.Bytes()), StreamHandler{
		Hello: func(h Hello) (Handler, error) {
			gotHello = &h
			return Handler{
				Batch: func(b []shadow.Access) {
					last := len(got) - 1
					if last >= 0 && got[last].kind == "batch" {
						// Frame splits are invisible to consumers: merge
						// contiguous batch frames back into one event.
						got[last].batch = append(got[last].batch, b...)
						return
					}
					got = append(got, event{kind: "batch", batch: append([]shadow.Access(nil), b...)})
				},
				Span:  func(name string, at machine.Duration) { got = append(got, event{kind: "span", name: name, at: at}) },
				Clock: func(at machine.Duration) { got = append(got, event{kind: "clock", at: at}) },
				Alloc: func(a AllocInfo) { got = append(got, event{kind: "alloc", id: a.ID}) },
				Free:  func(id int) { got = append(got, event{kind: "free", id: id}) },
				Diagnostic: func(title string) {
					got = append(got, event{kind: "diagnostic", name: title})
				},
			}, nil
		},
		Bye: func(b Bye) { gotBye = &b },
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotHello == nil || gotHello.Tenant != "t" || gotHello.Process != "p" || gotHello.Platform != "Intel+Pascal" {
		t.Fatalf("hello = %+v", gotHello)
	}
	if gotBye == nil {
		t.Fatal("no bye segment")
	}
	wantBatches, wantRecords := ss.Counts()
	if gotBye.Batches != wantBatches || gotBye.Records != wantRecords || gotBye.DroppedRecords != 0 {
		t.Fatalf("bye = %+v, want %d batches / %d records", gotBye, wantBatches, wantRecords)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.kind != g.kind || w.name != g.name || w.id != g.id || w.at != g.at || len(w.batch) != len(g.batch) {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
		for j := range w.batch {
			if w.batch[j] != g.batch[j] {
				t.Fatalf("event %d record %d: got %+v, want %+v", i, j, g.batch[j], w.batch[j])
			}
		}
	}
}

// TestVersion1StreamDecodes pins backward compatibility: a stream with
// a version-1 header, which has no diagnostic frame, decodes frame for
// frame under version 2.
func TestVersion1StreamDecodes(t *testing.T) {
	buf := append([]byte(Magic), 1)
	buf = AppendSegment(buf, SegHello, AppendHello(nil, Hello{Tenant: "t", Process: "old"}))
	var frames []byte
	frames = AppendAlloc(frames, AllocInfo{ID: 3, Base: 0x1000, Size: 64, Kind: memsim.Managed, Label: "xs"})
	frames = AppendBatch(frames, sampleBatch(10, 0x1000))
	frames = AppendFree(frames, 3)
	buf = AppendSegment(buf, SegFrames, frames)
	buf = AppendSegment(buf, SegBye, AppendBye(nil, Bye{Batches: 1, Records: 10}))

	var process string
	var events []string
	err := ReadStream(bytes.NewReader(buf), StreamHandler{
		Hello: func(h Hello) (Handler, error) {
			process = h.Process
			return Handler{
				Alloc: func(a AllocInfo) { events = append(events, fmt.Sprintf("alloc %d %s", a.ID, a.Label)) },
				Batch: func(b []shadow.Access) { events = append(events, fmt.Sprintf("batch %d", len(b))) },
				Free:  func(id int) { events = append(events, fmt.Sprintf("free %d", id)) },
			}, nil
		},
		Bye: func(b Bye) { events = append(events, fmt.Sprintf("bye %d", b.Records)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(events, ", "), "alloc 3 xs, batch 10, free 3, bye 10"; process != "old" || got != want {
		t.Fatalf("decoded %q from process %q, want %q from \"old\"", got, process, want)
	}
}

// TestDecodeErrors pins the error taxonomy on specific corruptions.
func TestDecodeErrors(t *testing.T) {
	valid := sampleStream()

	run := func(data []byte) error {
		h := StreamHandler{Hello: func(Hello) (Handler, error) { return Handler{}, nil }}
		return ReadStream(bytes.NewReader(data), h)
	}

	if err := run(valid); err != nil {
		t.Fatalf("valid stream: %v", err)
	}

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[0] = 'Y'
		if err := run(mut); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("future version", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[4] = 0x63 // version 99
		err := run(mut)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Found != 99 || ve.Supported != Version {
			t.Fatalf("err = %v, want VersionError{99, %d}", err, Version)
		}
	})
	t.Run("payload bit flip fails checksum", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[len(mut)/2] ^= 0x01 // inside the frames segment payload
		if err := run(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	})
	t.Run("mid-segment truncation", func(t *testing.T) {
		if err := run(valid[:len(valid)-3]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("EOF before hello", func(t *testing.T) {
		if err := run(AppendHeader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("mid-stream EOF after hello is clean", func(t *testing.T) {
		hdr := AppendHeader(nil)
		hdr = AppendSegment(hdr, SegHello, AppendHello(nil, Hello{Tenant: "t", Process: "p"}))
		if err := run(hdr); err != nil {
			t.Fatalf("EOF at segment boundary after hello: %v", err)
		}
	})
	t.Run("frames before hello", func(t *testing.T) {
		hdr := AppendHeader(nil)
		hdr = AppendSegment(hdr, SegFrames, AppendClock(nil, 1))
		if err := run(hdr); err == nil {
			t.Fatal("frames before hello accepted")
		}
	})
	t.Run("segment after bye", func(t *testing.T) {
		mut := AppendSegment(append([]byte(nil), valid...), SegFrames, AppendClock(nil, 1))
		if err := run(mut); err == nil {
			t.Fatal("segment after bye accepted")
		}
	})
	t.Run("oversized batch count", func(t *testing.T) {
		var frames []byte
		frames = append(frames, FrameBatch, 0xff, 0xff, 0xff, 0x7f)
		hdr := AppendHeader(nil)
		hdr = AppendSegment(hdr, SegHello, AppendHello(nil, Hello{}))
		hdr = AppendSegment(hdr, SegFrames, frames)
		if err := run(hdr); err == nil {
			t.Fatal("oversized batch count accepted")
		}
	})
	t.Run("unknown frame tag", func(t *testing.T) {
		hdr := AppendHeader(nil)
		hdr = AppendSegment(hdr, SegHello, AppendHello(nil, Hello{}))
		hdr = AppendSegment(hdr, SegFrames, []byte{0x7e})
		if err := run(hdr); err == nil {
			t.Fatal("unknown frame tag accepted")
		}
	})
}
