package wire_test

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"xplacer/internal/agg"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// soakBatch builds one producer's batch; addresses are disjoint per
// producer so the decoded record count is unambiguous.
func soakBatch(producer, round, n int) []shadow.Access {
	batch := make([]shadow.Access, n)
	base := memsim.Addr(uintptr(producer)<<32 + uintptr(round)<<16)
	for i := range batch {
		a := &batch[i]
		a.Dev = machine.Device(i % 2)
		a.Kind = memsim.AccessKind(i % 3)
		a.Size = 8
		a.Addr = base + memsim.Addr(i*8)
	}
	return batch
}

// produce hammers one StreamSink from nProducers goroutines, mixing
// batch drains with span boundaries the way concurrent recording-engine
// drains interleave. Returns the total records applied.
func produce(ss *wire.StreamSink, nProducers, rounds, perBatch int) int64 {
	var wg sync.WaitGroup
	for p := 0; p < nProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if r%10 == 0 {
					ss.Span("kernel")
				}
				ss.Apply(soakBatch(p, r, perBatch), nil)
			}
		}(p)
	}
	wg.Wait()
	return int64(nProducers * rounds * perBatch)
}

// slowReader throttles the consumer side so the producer-side queue
// actually fills.
type slowReader struct {
	r     io.Reader
	chunk int
	delay time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if len(p) > s.chunk {
		p = p[:s.chunk]
	}
	time.Sleep(s.delay)
	return s.r.Read(p)
}

// TestSoakBlockLosesNothing pins the block policy: many concurrent
// producers against a deliberately slow consumer (an aggregator behind a
// throttled pipe) stall rather than lose — every applied record arrives,
// and retained queue memory stays within the budget.
func TestSoakBlockLosesNothing(t *testing.T) {
	pr, pw := io.Pipe()

	// Start the consumer first: NewStreamSink writes the handshake
	// synchronously, which on an unbuffered pipe needs a reader.
	g := agg.New()
	ingested := make(chan error, 1)
	go func() {
		ingested <- g.Ingest(&slowReader{r: pr, chunk: 8 << 10, delay: 200 * time.Microsecond})
	}()

	ss, err := wire.NewStreamSink(pw, wire.Config{
		Hello:        wire.Hello{Tenant: "soak", Process: "block", Platform: "Intel+Pascal", Policy: byte(wire.Block)},
		Policy:       wire.Block,
		SegmentBytes: 4 << 10,
		QueueBytes:   1, // clamped up to the two-segment minimum: maximal backpressure
	})
	if err != nil {
		t.Fatal(err)
	}

	applied := produce(ss, 6, 60, 500)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}

	if segs, recs, bts := ss.Dropped(); segs != 0 || recs != 0 || bts != 0 {
		t.Fatalf("block policy dropped: %d segments, %d records, %d bytes", segs, recs, bts)
	}
	if _, recs := ss.Counts(); recs != applied {
		t.Fatalf("sink counted %d records, producers applied %d", recs, applied)
	}
	if hw, budget := ss.MaxQueuedBytes(), ss.QueueBudget(); hw > budget {
		t.Fatalf("queue high-water %d exceeds budget %d", hw, budget)
	}
	p := g.Find("soak", "block")
	if p == nil {
		t.Fatal("aggregator has no proc soak/block")
	}
	_, recs, _, clientDropped := p.Stats()
	if recs != applied {
		t.Fatalf("aggregator applied %d records, producers sent %d", recs, applied)
	}
	if clientDropped != 0 {
		t.Fatalf("bye reported %d dropped records on a block stream", clientDropped)
	}
}

// slowWriter throttles the writer goroutine so segments pile up in the
// queue and the drop policy has to act.
type slowWriter struct {
	buf   bytes.Buffer
	delay time.Duration
}

func (s *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.buf.Write(p)
}

// TestSoakDropBoundedAndCounted pins the drop policy: retained queue
// memory never exceeds the (clamped) budget, and what was lost is
// counted exactly — decoding the surviving stream recovers precisely
// applied minus dropped records, and the bye totals match the sink's.
func TestSoakDropBoundedAndCounted(t *testing.T) {
	w := &slowWriter{delay: 2 * time.Millisecond}
	ss, err := wire.NewStreamSink(w, wire.Config{
		Hello:        wire.Hello{Tenant: "soak", Process: "drop", Platform: "Intel+Pascal", Policy: byte(wire.Drop)},
		Policy:       wire.Drop,
		SegmentBytes: 4 << 10,
		QueueBytes:   1, // clamped up to the two-segment minimum
	})
	if err != nil {
		t.Fatal(err)
	}

	applied := produce(ss, 6, 60, 500)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	if hw, budget := ss.MaxQueuedBytes(), ss.QueueBudget(); hw > budget {
		t.Fatalf("queue high-water %d exceeds budget %d", hw, budget)
	}
	_, appliedCount := ss.Counts()
	if appliedCount != applied {
		t.Fatalf("sink counted %d records, producers applied %d", appliedCount, applied)
	}
	dropSegs, dropRecs, dropBytes := ss.Dropped()
	if dropSegs == 0 {
		t.Fatal("soak did not force any drops; slow the writer or raise volume")
	}

	var decoded int64
	var bye *wire.Bye
	err = wire.ReadStream(bytes.NewReader(w.buf.Bytes()), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) {
			return wire.Handler{Batch: func(b []shadow.Access) { decoded += int64(len(b)) }}, nil
		},
		Bye: func(b wire.Bye) { bye = &b },
	})
	if err != nil {
		t.Fatalf("surviving stream does not decode: %v", err)
	}
	if want := applied - dropRecs; decoded != want {
		t.Fatalf("decoded %d records, want applied(%d) - dropped(%d) = %d", decoded, applied, dropRecs, want)
	}
	if bye == nil {
		t.Fatal("no bye segment")
	}
	if bye.Records != applied || bye.DroppedSegments != dropSegs || bye.DroppedRecords != dropRecs || bye.DroppedBytes != dropBytes {
		t.Fatalf("bye %+v disagrees with sink counters (records %d, drops %d/%d/%d)",
			bye, applied, dropSegs, dropRecs, dropBytes)
	}
}

// TestSoakWriterDeath pins the dead-writer escape hatch: when the
// writer fails mid-stream, producers must not wedge (even under the
// block policy) and the loss is counted.
func TestSoakWriterDeath(t *testing.T) {
	fw := &failingWriter{failAfter: 3}
	ss, err := wire.NewStreamSink(fw, wire.Config{
		Hello:        wire.Hello{Tenant: "soak", Process: "dead", Policy: byte(wire.Block)},
		Policy:       wire.Block,
		SegmentBytes: 4 << 10,
		QueueBytes:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		produce(ss, 4, 40, 500)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("producers wedged on a dead writer")
	}
	if err := ss.Close(); err == nil {
		t.Fatal("Close returned nil after writer failure")
	}
	if segs, _, _ := ss.Dropped(); segs == 0 {
		t.Fatal("no drops counted after writer death")
	}
}

// TestApplyAfterClose pins the closed-sink escape hatch: Close ends the
// writer goroutine, so a sink that keeps receiving batches (a tracer's
// stream stays attached after its caller closes it) must drop and count
// them under both policies instead of queueing segments no writer will
// drain. Four producers at once send enough records to fill the default
// queue budget several times.
func TestApplyAfterClose(t *testing.T) {
	for _, policy := range []wire.Policy{wire.Block, wire.Drop} {
		var out bytes.Buffer
		ss, err := wire.NewStreamSink(&out, wire.Config{
			Hello:  wire.Hello{Tenant: "soak", Process: "closed", Policy: byte(policy)},
			Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		closedLen := out.Len()
		var applied int64
		done := make(chan struct{})
		go func() {
			applied = produce(ss, 4, 128, 4096)
			ss.Flush()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("policy %d: Apply after Close wedged", policy)
		}
		if _, recs, _ := ss.Dropped(); recs != applied {
			t.Errorf("policy %d: %d records dropped after Close, want %d", policy, recs, applied)
		}
		if out.Len() != closedLen {
			t.Errorf("policy %d: %d bytes written after Close", policy, out.Len()-closedLen)
		}
		if err := ss.Close(); err != nil {
			t.Errorf("policy %d: second Close: %v", policy, err)
		}
	}
}

// TestApplyAfterCloseEncodesNothing: a closed sink counts an applied
// batch's records as dropped and returns without encoding the batch into
// a segment nothing would write.
func TestApplyAfterCloseEncodesNothing(t *testing.T) {
	ss, err := wire.NewStreamSink(io.Discard, wire.Config{Hello: wire.Hello{Tenant: "soak", Process: "closed"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	batch := soakBatch(0, 0, 4096)
	const runs = 10
	if allocs := testing.AllocsPerRun(runs, func() { ss.Apply(batch, nil) }); allocs != 0 {
		t.Errorf("Apply after Close allocated %v times per batch, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the measured ones.
	if segs, recs, bytes := ss.Dropped(); segs != 0 || recs != (runs+1)*4096 || bytes != 0 {
		t.Errorf("dropped %d segments, %d records, %d bytes; want no segment or byte and %d records", segs, recs, bytes, (runs+1)*4096)
	}
}

type failingWriter struct {
	n         int
	failAfter int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.n++
	if f.n > f.failAfter {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}
