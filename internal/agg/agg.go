// Package agg is the fleet aggregation engine behind cmd/xplagg: it
// ingests wire-format trace streams from many instrumented client
// processes — over TCP or from files, through one decoder — and keeps
// per-process analysis state in one pipeline.Pipeline per (tenant,
// process): the shadow table, heat map, and pattern classifier an
// in-process run would use, driven by the decoded frames. Snapshots are
// diag.Report JSON, byte-compatible with `xplacer -json`;
// internal/goldenreport pins the equivalence. The snapshot of a
// finished stream is the report of its last diagnostic point
// (pipeline.Handler); concurrent streams under one (tenant, process)
// key end each other's intervals.
//
// # Concurrency model
//
// Ingest is a two-stage pipeline so the aggregator scales with cores:
//
//   - Decode: each stream's goroutine (the caller of Ingest) only
//     decodes frames. Decoded batches come from a shared wire.BatchPool
//     and are wrapped in pooled applyItems, so the per-frame decode path
//     allocates nothing after warmup.
//   - Apply: every (tenant, process) Proc owns a bounded FIFO apply
//     queue drained by one dedicated worker goroutine, the only
//     goroutine that ever touches the proc's analysis state (no lock on
//     the apply path). Frames from one stream are enqueued in decode
//     order onto one queue, so per-stream frame order — the only
//     ordering invariant — is preserved exactly; N procs apply on N
//     cores.
//
// Backpressure is end-to-end: a full apply queue blocks the enqueueing
// decode goroutine, which stops reading its connection, which stalls
// that one client through TCP flow control. Other streams — and every
// HTTP endpoint — are unaffected. Per-proc stall counts and queue depths
// are exported at /metrics.
//
// Snapshots never take an apply-path lock. The worker publishes an
// immutable Snapshot (report, spans, clock) through an atomic pointer
// when it dequeues a snapshot request; readers either get the published
// snapshot immediately (bounded staleness, see Proc.Published) or wait
// for the worker to reach their request in queue order (exact, see
// Proc.Report). Staleness is bounded by the snapshot max-age plus one
// queue drain; an apply worker is never blocked by a reader — the only
// snapshot cost it pays is building a report when one is requested and
// the published one has expired.
package agg

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/pattern"
	"xplacer/internal/pipeline"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// Defaults for the tunables (see the Options).
const (
	// DefaultQueueDepth is the per-proc apply queue bound: how many
	// decoded items may sit between a stream's decoder and the proc's
	// apply worker before the decoder stalls.
	DefaultQueueDepth = 256
	// DefaultSnapshotMaxAge is how stale a published snapshot the HTTP
	// endpoints serve before forcing a rebuild.
	DefaultSnapshotMaxAge = time.Second
)

// Option configures an Aggregator.
type Option func(*Aggregator)

// WithQueueDepth sets the per-proc apply queue bound (items, not
// records; one item is one decoded frame). Smaller queues bound decode
// run-ahead and memory; larger queues absorb burstier apply costs.
func WithQueueDepth(n int) Option {
	return func(g *Aggregator) {
		if n > 0 {
			g.queueDepth = n
		}
	}
}

// WithSnapshotMaxAge sets how stale a published snapshot the HTTP
// surface serves before forcing a rebuild (the documented staleness
// bound). Zero or negative means every request with unapplied items
// rebuilds.
func WithSnapshotMaxAge(d time.Duration) Option {
	return func(g *Aggregator) { g.maxStale = d }
}

// applyItem is one unit on a proc's apply queue: a decoded frame, or a
// snapshot marker. Items are pooled (Aggregator.item/recycle) so
// steady-state ingest allocates none.
type applyItem struct {
	kind  byte // wire.Frame* tag, or itemSnapshot
	batch []shadow.Access
	name  string
	at    machine.Duration
	alloc wire.AllocInfo
	id    int
	tr    wire.TransferInfo
	// snap receives the freshly published snapshot (itemSnapshot);
	// buffered so an abandoned requester never blocks the worker.
	snap chan *Snapshot
}

// itemSnapshot is the one marker kind, outside the wire.Frame* tag space.
// Markers do not count as mutations (see Proc.enq/app), so a published
// snapshot's sequence number tracks state-changing items only.
const itemSnapshot = 0xFE

// Snapshot is an immutable published view of one proc, built by its
// apply worker at a queue boundary. Readers share it without locks.
type Snapshot struct {
	Report diag.Report
	// Spans are the stream's kernel-launch spans, for Perfetto export.
	Spans []pattern.SpanInfo
	Now   machine.Duration

	// seq is the count of mutation items applied when the snapshot was
	// built; equal to the proc's enqueue count iff the snapshot reflects
	// everything sent so far.
	seq int64
	// at is the wall-clock build time, for the staleness bound.
	at time.Time
}

// Proc is the aggregation state of one (tenant, process) pair. All
// analysis state below the queue is owned exclusively by the proc's
// apply worker; everything readers touch is atomic or immutable.
type Proc struct {
	Tenant   string
	Process  string
	Platform string

	g     *Aggregator
	queue chan *applyItem

	// pl is the worker-owned analysis state (no mutex: single-writer by
	// design), driven through its wire-edge handler h. plat scales its
	// report's pattern penalties.
	pl   *pipeline.Pipeline
	h    wire.Handler
	plat *machine.Platform

	// pub is the last snapshot the worker published.
	pub atomic.Pointer[Snapshot]

	// enq/app count mutation items enqueued/applied (markers excluded):
	// the freshness handshake between readers and the worker.
	enq atomic.Int64
	app atomic.Int64

	batches atomic.Int64
	records atomic.Int64
	streams atomic.Int64
	// stalls counts enqueues that found the queue full — each one
	// stalled a decode goroutine until the worker caught up.
	stalls atomic.Int64
	// clientDropped accumulates the drop totals reported by bye segments —
	// the producer-side loss the aggregated state is missing.
	clientDropped atomic.Int64

	exited chan struct{} // closed when the apply worker returns
}

// Key returns the tenant-qualified process name snapshots are addressed
// by.
func (p *Proc) Key() string { return p.Tenant + "/" + p.Process }

func newProc(g *Aggregator, h wire.Hello) *Proc {
	plat, err := machine.ByName(h.Platform)
	if err != nil {
		// Unknown or absent preset: analysis state still aggregates; only
		// the pattern-penalty scaling needs a platform, so fall back to the
		// first known preset.
		plat, _ = machine.ByName("Intel+Pascal")
	}
	pl := pipeline.New()
	pl.EnableHeatmap(0, pl.Now)
	pl.EnablePatterns(pl.Now)
	p := &Proc{
		Tenant:   h.Tenant,
		Process:  h.Process,
		Platform: h.Platform,
		g:        g,
		queue:    make(chan *applyItem, g.queueDepth),
		pl:       pl,
		h:        pl.Handler(),
		plat:     plat,
		exited:   make(chan struct{}),
	}
	go p.run()
	return p
}

// enqueue puts one item on the apply queue, counting the stall when the
// queue is full. The blocking send is the backpressure edge: it stalls
// only the calling decode goroutine (and through it, that one TCP
// connection).
func (p *Proc) enqueue(it *applyItem) {
	if it.kind < itemSnapshot {
		p.enq.Add(1)
	}
	select {
	case p.queue <- it:
	default:
		p.stalls.Add(1)
		p.queue <- it
	}
}

// run is the apply worker: the single goroutine that mutates this
// proc's analysis state, in queue order.
func (p *Proc) run() {
	defer close(p.exited)
	for it := range p.queue {
		p.apply(it)
		if it.kind < itemSnapshot {
			p.app.Add(1)
		}
		p.g.recycle(it)
	}
}

// apply dispatches one dequeued item to the pipeline.
func (p *Proc) apply(it *applyItem) {
	switch it.kind {
	case wire.FrameBatch:
		p.batches.Add(1)
		p.records.Add(int64(len(it.batch)))
		p.g.batchesTotal.Add(1)
		p.g.recordsTotal.Add(int64(len(it.batch)))
		p.h.Batch(it.batch)
		p.g.batches.Put(it.batch)
		it.batch = nil
	case wire.FrameSpan:
		p.h.Span(it.name, it.at)
	case wire.FrameClock:
		p.h.Clock(it.at)
	case wire.FrameAlloc:
		p.h.Alloc(it.alloc)
	case wire.FrameFree:
		p.h.Free(it.id)
	case wire.FrameLabel:
		p.h.Label(it.id, it.name)
	case wire.FrameTransfer:
		p.h.Transfer(it.tr)
	case wire.FrameDiagnostic:
		p.h.Diagnostic(it.name)
	case itemSnapshot:
		s := p.publish()
		if it.snap != nil {
			it.snap <- s // buffered: never blocks the worker
		}
	}
}

// publish builds and publishes a fresh snapshot. Worker context only —
// or after Close, when the worker has exited.
func (p *Proc) publish() *Snapshot {
	s := &Snapshot{
		Report: p.pl.Report(p.Key(), p.plat),
		Spans:  p.pl.Patterns().Spans()[1:],
		Now:    p.pl.Now(),
		seq:    p.app.Load(),
		at:     time.Now(),
	}
	p.pub.Store(s)
	p.g.snapshotBuilds.Add(1)
	return s
}

// fresh enqueues a snapshot request and waits for the worker to reach
// it: the returned snapshot reflects every item enqueued before the
// call. The wait is bounded by one queue drain plus one report build.
func (p *Proc) fresh() *Snapshot {
	if p.g.closed.Load() {
		// The worker has exited (Close drained the queue); nothing else
		// can be mutating, so building in the caller is race-free.
		<-p.exited
		return p.publish()
	}
	snapc := make(chan *Snapshot, 1)
	it := p.g.item()
	it.kind = itemSnapshot
	it.snap = snapc
	p.enqueue(it)
	return <-snapc
}

// Report returns an exact snapshot's report: it reflects every frame
// enqueued before the call. Used by the offline `xplagg -snapshot` path,
// tests, and goldens; the stall-free bounded-staleness path is
// Published.
func (p *Proc) Report() diag.Report {
	return p.fresh().Report
}

// Published returns a snapshot at most maxAge stale: the published one
// if it already reflects everything enqueued (exact) or was built within
// maxAge; otherwise it requests a rebuild and waits (bounded by one
// queue drain plus one report build). This is the HTTP surface's path —
// apply workers are never blocked by readers, and build cost is paid at
// most once per maxAge per proc under sustained polling.
func (p *Proc) Published(maxAge time.Duration) *Snapshot {
	if s := p.pub.Load(); s != nil {
		if s.seq == p.enq.Load() {
			p.g.snapshotHits.Add(1)
			return s // exact: nothing state-changing since the build
		}
		if maxAge > 0 && time.Since(s.at) < maxAge {
			p.g.snapshotHits.Add(1)
			return s // stale, within the documented bound
		}
	}
	return p.fresh()
}

// Stats returns the proc's ingest totals: applied batches and records,
// streams that contributed, and the records the clients themselves
// reported dropping before the wire. Counters advance at apply time, so
// after a Report (which drains the queue) they are exact.
func (p *Proc) Stats() (batches, records, streams, clientDropped int64) {
	return p.batches.Load(), p.records.Load(), p.streams.Load(), p.clientDropped.Load()
}

// QueueStats returns the apply queue's current depth, its bound, and how
// many enqueues stalled on a full queue.
func (p *Proc) QueueStats() (depth, capacity int, stalls int64) {
	return len(p.queue), cap(p.queue), p.stalls.Load()
}

// Aggregator is the multi-stream ingest hub.
type Aggregator struct {
	queueDepth int
	maxStale   time.Duration

	mu     sync.Mutex
	procs  map[string]*Proc
	closed atomic.Bool

	// Pools: decoded batch slices shared with the wire decoder, and
	// apply-queue items. Both are bounded channel freelists, so steady-
	// state ingest allocates nothing and a GC cycle cannot regress that.
	batches *wire.BatchPool
	items   chan *applyItem

	// Counters, exposed at /metrics.
	streamsTotal   atomic.Int64
	streamsActive  atomic.Int64
	batchesTotal   atomic.Int64
	recordsTotal   atomic.Int64
	bytesTotal     atomic.Int64
	crcErrors      atomic.Int64
	decodeErrors   atomic.Int64
	snapshotHits   atomic.Int64
	snapshotBuilds atomic.Int64
}

// New returns an empty aggregator with default tuning.
func New(opts ...Option) *Aggregator {
	g := &Aggregator{
		procs:      map[string]*Proc{},
		queueDepth: DefaultQueueDepth,
		maxStale:   DefaultSnapshotMaxAge,
	}
	for _, o := range opts {
		o(g)
	}
	// The batch freelist must cover every queue's worth of in-flight
	// batches for a few procs; beyond that Get falls back to allocating,
	// which only dents the zero-alloc property, never correctness.
	g.batches = wire.NewBatchPool(4 * g.queueDepth)
	g.items = make(chan *applyItem, 4*g.queueDepth)
	return g
}

// item takes a pooled applyItem (or allocates one when the freelist is
// dry).
func (g *Aggregator) item() *applyItem {
	select {
	case it := <-g.items:
		return it
	default:
		return new(applyItem)
	}
}

// recycle zeroes and returns an item to the freelist.
func (g *Aggregator) recycle(it *applyItem) {
	*it = applyItem{}
	select {
	case g.items <- it:
	default:
	}
}

// proc finds or creates the (tenant, process) state.
func (g *Aggregator) proc(h wire.Hello) *Proc {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := h.Tenant + "/" + h.Process
	p, ok := g.procs[key]
	if !ok {
		p = newProc(g, h)
		g.procs[key] = p
	}
	return p
}

// Procs returns the known procs sorted by key.
func (g *Aggregator) Procs() []*Proc {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Proc, 0, len(g.procs))
	for _, p := range g.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Find returns the proc for (tenant, process), or nil.
func (g *Aggregator) Find(tenant, process string) *Proc {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.procs[tenant+"/"+process]
}

// Close stops every proc's apply worker after its queue drains. Call
// only once no Ingest or snapshot call is in flight (the long-running
// daemon never closes; tests and benchmarks do, so worker goroutines
// cannot accumulate).
func (g *Aggregator) Close() {
	if g.closed.Swap(true) {
		return
	}
	g.mu.Lock()
	procs := make([]*Proc, 0, len(g.procs))
	for _, p := range g.procs {
		procs = append(procs, p)
	}
	g.mu.Unlock()
	for _, p := range procs {
		close(p.queue)
	}
	for _, p := range procs {
		<-p.exited
	}
}

// countingReader counts consumed bytes for the ingest totals.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// brPool recycles the per-stream buffered readers.
var brPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 1<<16) },
}

// streamHandler returns the frame callbacks for one stream of p: each
// decoded frame is wrapped in a pooled item and enqueued; the apply
// worker does the rest. Decoded batches arrive already owned (the
// decoder took them from g.batches, see StreamHandler.Batches) and are
// recycled by the worker after apply.
func (g *Aggregator) streamHandler(p *Proc) wire.Handler {
	return wire.Handler{
		Batch: func(batch []shadow.Access) {
			it := g.item()
			it.kind = wire.FrameBatch
			it.batch = batch
			p.enqueue(it)
		},
		Span: func(name string, at machine.Duration) {
			it := g.item()
			it.kind = wire.FrameSpan
			it.name, it.at = name, at
			p.enqueue(it)
		},
		Clock: func(at machine.Duration) {
			it := g.item()
			it.kind = wire.FrameClock
			it.at = at
			p.enqueue(it)
		},
		Alloc: func(a wire.AllocInfo) {
			it := g.item()
			it.kind = wire.FrameAlloc
			it.alloc = a
			p.enqueue(it)
		},
		Free: func(id int) {
			it := g.item()
			it.kind = wire.FrameFree
			it.id = id
			p.enqueue(it)
		},
		Label: func(id int, label string) {
			it := g.item()
			it.kind = wire.FrameLabel
			it.id, it.name = id, label
			p.enqueue(it)
		},
		Transfer: func(tr wire.TransferInfo) {
			it := g.item()
			it.kind = wire.FrameTransfer
			it.tr = tr
			p.enqueue(it)
		},
		Diagnostic: func(title string) {
			it := g.item()
			it.kind = wire.FrameDiagnostic
			it.name = title
			p.enqueue(it)
		},
	}
}

// Ingest decodes one complete stream from r and enqueues its frames for
// the owning proc's apply worker. It is the shared ingest path: TCP
// connections and trace files go through the same decoder. Safe for
// concurrent use — one call per stream. When Ingest returns, the
// stream's frames are ordered in the apply queue but not necessarily
// applied yet; Proc.Report (and the exact branch of Published) barriers
// on the queue.
func (g *Aggregator) Ingest(r io.Reader) error {
	g.streamsTotal.Add(1)
	g.streamsActive.Add(1)
	defer g.streamsActive.Add(-1)

	cr := &countingReader{r: r}
	defer func() { g.bytesTotal.Add(cr.n) }()
	br := brPool.Get().(*bufio.Reader)
	br.Reset(cr)
	defer brPool.Put(br)

	var p *Proc
	err := wire.ReadStream(br, wire.StreamHandler{
		Batches: g.batches,
		Hello: func(h wire.Hello) (wire.Handler, error) {
			p = g.proc(h)
			p.streams.Add(1)
			return g.streamHandler(p), nil
		},
		Bye: func(b wire.Bye) {
			p.clientDropped.Add(b.DroppedRecords)
		},
	})
	if err != nil {
		if errors.Is(err, wire.ErrChecksum) {
			g.crcErrors.Add(1)
		} else {
			g.decodeErrors.Add(1)
		}
		return err
	}
	return nil
}

// IngestFile ingests one trace file (a stream captured with
// `-stream file:...`).
func (g *Aggregator) IngestFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Ingest(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Serve accepts client connections on l until the listener closes,
// ingesting each connection's stream in its own goroutine. Per-stream
// decode errors are reported through report (nil discards them) rather
// than stopping the daemon — one corrupt client must not take the
// aggregator down.
func (g *Aggregator) Serve(l net.Listener, report func(error)) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := g.Ingest(c); err != nil && report != nil {
				report(fmt.Errorf("stream from %s: %w", c.RemoteAddr(), err))
			}
		}(conn)
	}
}

// Totals returns the global ingest counters: streams ever accepted,
// streams being decoded now, applied batches and records, consumed wire
// bytes, checksum failures, and other decode failures.
func (g *Aggregator) Totals() (streams, active, batches, records, bytes, crcErrs, decodeErrs int64) {
	return g.streamsTotal.Load(), g.streamsActive.Load(), g.batchesTotal.Load(),
		g.recordsTotal.Load(), g.bytesTotal.Load(), g.crcErrors.Load(), g.decodeErrors.Load()
}

// SnapshotStats returns how many snapshot requests were served from the
// published state versus rebuilt by an apply worker.
func (g *Aggregator) SnapshotStats() (served, builds int64) {
	return g.snapshotHits.Load(), g.snapshotBuilds.Load()
}
