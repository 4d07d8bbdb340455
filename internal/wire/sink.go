package wire

import (
	"io"
	"sync"

	"xplacer/internal/machine"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
)

// Policy selects what Apply does when the outbound queue is full.
type Policy uint8

const (
	// Block makes the recording drain wait for queue space: nothing is
	// ever lost while the writer lives, at the cost of coupling the
	// traced program's progress to the consumer's.
	Block Policy = iota
	// Drop discards the segment being enqueued and counts exactly what
	// was lost (segments, records, bytes): the traced program never
	// waits, and retained memory never exceeds the queue budget.
	Drop
)

// Default sizing: segments cut at 32 KiB keep per-write syscall cost
// amortized; an 8 MiB queue rides out multi-millisecond consumer stalls
// at full recording rate.
const (
	DefaultSegmentBytes = 32 << 10
	DefaultQueueBytes   = 8 << 20
)

// maxChunkBytes over-estimates the largest single append between cut
// checks: one MaxFrameRecords batch frame at worst-case varint widths
// (~27 bytes/record), with headroom for the frame header and for the
// name-carrying frames (≤ 2*MaxNameLen + tag/varints). Segment targets
// and queue budgets are clamped against it so an open segment can never
// exceed MaxSegmentBytes and the block policy can never wedge on a
// segment larger than the whole queue.
const maxChunkBytes = 128 << 10

// Config parameterizes a StreamSink.
type Config struct {
	// Hello identifies this stream to the receiver.
	Hello Hello
	// Policy is the backpressure policy (Block by default).
	Policy Policy
	// QueueBytes bounds the encoded segments queued for the writer
	// (DefaultQueueBytes when 0). It is a hard cap on retained queue
	// memory in both policies; values below two segments are raised so
	// the pipeline can always make progress.
	QueueBytes int
	// SegmentBytes is the target encoded segment size
	// (DefaultSegmentBytes when 0).
	SegmentBytes int
	// Clock, if set, stamps clock and span frames with simulated time
	// (pass cuda.Context.Now; sampled per drained batch, never per
	// access).
	Clock func() machine.Duration
}

// StreamSink is a record.Sink that serializes drained batches into wire
// segments and ships them through a bounded in-memory queue to w (a
// socket, a file — anything that accepts the stream format). Apply runs
// under the recording engine's lock; the writer goroutine owns w. Frame
// order on the wire is exactly apply order: every mutator appends under
// one lock.
//
// The sink also carries the shadow-table life-cycle frames (Alloc, Free,
// Label, Transfer) and the span markers a remote consumer needs to
// rebuild per-allocation state. The pipeline.Pipeline the sink is
// attached to calls them: it forwards every event after applying it.
type StreamSink struct {
	policy     Policy
	queueBytes int
	segTarget  int
	now        func() machine.Duration

	mu   sync.Mutex
	cond *sync.Cond
	// seg is the frames payload being filled; segRecords counts the
	// access records encoded into it (for exact drop accounting).
	seg        []byte
	segRecords int64
	// pending holds encoded segments not yet handed to the writer;
	// pendingBytes includes the segment the writer is mid-write on, so
	// the budget bounds all retained queue memory. maxQueued is the
	// high-water mark the soak tests assert against.
	pending      [][]byte
	pendingBytes int
	maxQueued    int
	closed       bool
	werr         error

	lastClock  machine.Duration
	clockValid bool

	batches, records              int64
	dropSegs, dropRecs, dropBytes int64

	w    io.Writer
	done chan struct{}
}

// NewStreamSink writes the header and hello synchronously (so handshake
// failures surface at construction), then starts the writer goroutine
// and returns the sink. Callers must Close it to flush the tail and
// write the bye segment before closing the underlying writer.
func NewStreamSink(w io.Writer, cfg Config) (*StreamSink, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if max := MaxSegmentBytes - maxChunkBytes; cfg.SegmentBytes > max {
		cfg.SegmentBytes = max
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	// A queue that cannot hold two cut segments (each at most the target
	// plus one chunk overshoot plus framing) would wedge the block policy
	// and drop everything in the drop policy.
	if min := 2 * (cfg.SegmentBytes + maxChunkBytes); cfg.QueueBytes < min {
		cfg.QueueBytes = min
	}
	hdr := AppendHeader(nil)
	hdr = AppendSegment(hdr, SegHello, AppendHello(nil, cfg.Hello))
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	s := &StreamSink{
		policy:     cfg.Policy,
		queueBytes: cfg.QueueBytes,
		segTarget:  cfg.SegmentBytes,
		now:        cfg.Clock,
		w:          w,
		done:       make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.writeLoop()
	return s, nil
}

// stampClock appends a clock frame if the simulated clock moved; the
// caller holds s.mu.
func (s *StreamSink) stampClock() {
	if s.now == nil {
		return
	}
	at := s.now()
	if s.clockValid && at == s.lastClock {
		return
	}
	s.lastClock, s.clockValid = at, true
	s.seg = AppendClock(s.seg, at)
}

// Apply implements record.Sink: the batch is encoded onto the open
// segment, which is cut and queued once it reaches the target size.
// After Close nothing would write the segment, so the batch's records
// count as dropped without being encoded.
func (s *StreamSink) Apply(batch []shadow.Access, _ *record.Cursor) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	s.records += int64(len(batch))
	if s.closed {
		s.dropRecs += int64(len(batch))
		return
	}
	s.stampClock()
	// Chunk at the frame-record limit with a cut check between chunks, so
	// the open segment can never outgrow MaxSegmentBytes no matter how
	// large one drained batch is.
	for len(batch) > 0 {
		n := len(batch)
		if n > MaxFrameRecords {
			n = MaxFrameRecords
		}
		s.seg = AppendBatch(s.seg, batch[:n])
		s.segRecords += int64(n)
		batch = batch[n:]
		if len(s.seg) >= s.segTarget {
			s.cutLocked(false)
		}
	}
}

// Span appends a span-boundary frame (kernel launch drain points).
func (s *StreamSink) Span(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var at machine.Duration
	if s.now != nil {
		at = s.now()
		s.lastClock, s.clockValid = at, true
	}
	s.seg = AppendSpan(s.seg, name, at)
	if len(s.seg) >= s.segTarget {
		s.cutLocked(false)
	}
}

// Alloc forwards an allocation interception.
func (s *StreamSink) Alloc(a AllocInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seg = AppendAlloc(s.seg, a)
	if len(s.seg) >= s.segTarget {
		s.cutLocked(false)
	}
}

// Free forwards a free interception (the caller flushes the engine
// first, so buffered accesses precede the free on the wire).
func (s *StreamSink) Free(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seg = AppendFree(s.seg, id)
	if len(s.seg) >= s.segTarget {
		s.cutLocked(false)
	}
}

// Label forwards a late labeling.
func (s *StreamSink) Label(id int, label string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seg = AppendLabel(s.seg, id, label)
	if len(s.seg) >= s.segTarget {
		s.cutLocked(false)
	}
}

// Transfer forwards a bulk-transfer interception (flushed-first by the
// caller, like Free).
func (s *StreamSink) Transfer(id int, dir byte, off, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seg = AppendTransfer(s.seg, TransferInfo{ID: id, Dir: dir, Off: off, N: n})
	if len(s.seg) >= s.segTarget {
		s.cutLocked(false)
	}
}

// Flush cuts and queues the open segment, if any. It does not wait for
// the writer; Close does.
func (s *StreamSink) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cutLocked(false)
}

// cutLocked frames the open segment and enqueues it; the caller holds
// s.mu. wait forces block semantics regardless of policy (used for the
// bye segment, which must not be dropped).
func (s *StreamSink) cutLocked(wait bool) {
	if len(s.seg) == 0 {
		return
	}
	enc := AppendSegment(nil, SegFrames, s.seg)
	recs := s.segRecords
	s.seg = s.seg[:0]
	s.segRecords = 0
	s.enqueueLocked(enc, recs, wait)
}

// enqueueLocked applies the backpressure policy and queues one encoded
// segment; the caller holds s.mu. pendingBytes never exceeds queueBytes.
//
// A dead writer (a write failed) or a closed sink (Close ended the
// writer) can never drain the queue, so blocking would deadlock the
// recording engine: under both policies every later segment is dropped
// and counted instead. A write error surfaces via Close.
func (s *StreamSink) enqueueLocked(enc []byte, recs int64, wait bool) {
	if s.policy == Block || wait {
		for s.pendingBytes+len(enc) > s.queueBytes && s.werr == nil && !s.closed {
			s.cond.Wait()
		}
	}
	if s.werr != nil || s.closed || s.pendingBytes+len(enc) > s.queueBytes {
		s.dropSegs++
		s.dropRecs += recs
		s.dropBytes += int64(len(enc))
		return
	}
	s.pending = append(s.pending, enc)
	s.pendingBytes += len(enc)
	if s.pendingBytes > s.maxQueued {
		s.maxQueued = s.pendingBytes
	}
	s.cond.Broadcast()
}

// writeLoop is the writer goroutine: it pops queued segments and writes
// them to w. pendingBytes is released only after the write completes, so
// the budget covers in-flight bytes too.
func (s *StreamSink) writeLoop() {
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			close(s.done)
			return
		}
		enc := s.pending[0]
		s.pending = s.pending[1:]
		dead := s.werr != nil
		s.mu.Unlock()

		var err error
		if !dead {
			_, err = s.w.Write(enc)
		}

		s.mu.Lock()
		s.pendingBytes -= len(enc)
		if err != nil && s.werr == nil {
			s.werr = err
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Close cuts the tail segment, queues the bye summary (waiting for space
// if needed — the bye is never dropped), waits for the writer to drain,
// and returns the first write error. The sink is unusable afterwards;
// the caller still owns closing the underlying writer.
func (s *StreamSink) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.werr
	}
	s.stampClock()
	s.cutLocked(true)
	bye := AppendSegment(nil, SegBye, AppendBye(nil, Bye{
		Batches:         s.batches,
		Records:         s.records,
		DroppedSegments: s.dropSegs,
		DroppedRecords:  s.dropRecs,
		DroppedBytes:    s.dropBytes,
	}))
	s.enqueueLocked(bye, 0, true)
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

// Counts returns the batches and access records applied to the sink
// (including any later dropped by the queue).
func (s *StreamSink) Counts() (batches, records int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches, s.records
}

// Dropped returns the exact loss totals of the drop policy (all zero
// under Block unless the writer died or the sink was closed): the access
// records lost, and the segments and bytes of the encoded segments that
// carried them. Batches applied after Close are not encoded, so they add
// records only.
func (s *StreamSink) Dropped() (segments, records, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropSegs, s.dropRecs, s.dropBytes
}

// MaxQueuedBytes returns the queue's high-water mark — what the
// QueueBytes budget bounds.
func (s *StreamSink) MaxQueuedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxQueued
}

// QueueBudget returns the effective queue budget after clamping — the
// bound MaxQueuedBytes never exceeds.
func (s *StreamSink) QueueBudget() int { return s.queueBytes }
