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
// A stream is decoded and applied on one goroutine, the caller of
// Ingest: each decoded frame goes straight into its proc's
// pipeline.Handler under the proc's mutex. So per-stream frame order —
// the only ordering invariant — holds by construction, and when Ingest
// returns every frame of its stream is applied. Distinct procs apply in
// parallel; streams under one (tenant, process) take turns frame by
// frame, and a frame that finds the lock held counts as an ingest stall.
//
// Backpressure is end-to-end: a goroutine waiting for its proc's lock
// stops reading its connection, which stalls that one client through TCP
// flow control. Other procs, and every HTTP endpoint, are unaffected.
// Per-proc stall counts are exported at /metrics.
//
// Snapshots are immutable (report, spans, clock) and published through
// an atomic pointer. Proc.Published serves the last one without a lock
// while it is exact or younger than the snapshot max-age; a rebuild,
// Proc.Report and ?fresh=1 lock the proc and build the report between
// two frames.
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

// DefaultSnapshotMaxAge is how stale a published snapshot the HTTP
// endpoints serve before forcing a rebuild.
const DefaultSnapshotMaxAge = time.Second

// Option configures an Aggregator.
type Option func(*Aggregator)

// WithSnapshotMaxAge sets how stale a published snapshot the HTTP
// surface serves before forcing a rebuild (the documented staleness
// bound). Zero or negative means a request rebuilds whenever a frame
// was applied since the last build.
func WithSnapshotMaxAge(d time.Duration) Option {
	return func(g *Aggregator) { g.maxStale = d }
}

// Snapshot is an immutable published view of one proc, built under the
// proc's lock between two frames. Readers share it without locks.
type Snapshot struct {
	Report diag.Report
	// Spans are the stream's kernel-launch spans, for Perfetto export.
	Spans []pattern.SpanInfo
	Now   machine.Duration

	// seq is the count of frames applied when the snapshot was built;
	// equal to the proc's applied count iff the snapshot reflects every
	// frame applied so far.
	seq int64
	// at is the wall-clock build time, for the staleness bound.
	at time.Time
}

// Proc is the aggregation state of one (tenant, process) pair. Its
// pipeline is touched only under mu; everything readers touch without
// the lock is atomic or immutable.
type Proc struct {
	Tenant   string
	Process  string
	Platform string

	g *Aggregator

	// mu serializes the frames applied to pl, from every stream of this
	// proc, and the snapshot builds that read it.
	mu sync.Mutex
	// pl is the analysis state, driven through h: its wire-edge handler
	// with every callback applied under mu. plat scales its report's
	// pattern penalties.
	pl   *pipeline.Pipeline
	h    wire.Handler
	plat *machine.Platform

	// pub is the last snapshot built.
	pub atomic.Pointer[Snapshot]
	// applied counts the frames applied; a snapshot is exact while its
	// seq equals it.
	applied atomic.Int64

	batches atomic.Int64
	records atomic.Int64
	streams atomic.Int64
	// stalls counts frames that found mu held: each stalled its stream's
	// goroutine, and through it that one connection.
	stalls atomic.Int64
	// clientDropped accumulates the drop totals reported by bye segments —
	// the producer-side loss the aggregated state is missing.
	clientDropped atomic.Int64
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
		pl:       pl,
		plat:     plat,
	}
	ph := pl.Handler()
	p.h = wire.Handler{
		Batch: func(b []shadow.Access) {
			p.lock()
			p.batches.Add(1)
			p.records.Add(int64(len(b)))
			g.batchesTotal.Add(1)
			g.recordsTotal.Add(int64(len(b)))
			ph.Batch(b)
			p.unlock()
		},
		Span:       func(name string, at machine.Duration) { p.lock(); ph.Span(name, at); p.unlock() },
		Clock:      func(at machine.Duration) { p.lock(); ph.Clock(at); p.unlock() },
		Alloc:      func(a wire.AllocInfo) { p.lock(); ph.Alloc(a); p.unlock() },
		Free:       func(id int) { p.lock(); ph.Free(id); p.unlock() },
		Label:      func(id int, label string) { p.lock(); ph.Label(id, label); p.unlock() },
		Transfer:   func(tr wire.TransferInfo) { p.lock(); ph.Transfer(tr); p.unlock() },
		Diagnostic: func(title string) { p.lock(); ph.Diagnostic(title); p.unlock() },
	}
	return p
}

// lock takes the proc's lock to apply one frame, counting a stall when
// another stream's frame or a snapshot build holds it.
func (p *Proc) lock() {
	if !p.mu.TryLock() {
		p.stalls.Add(1)
		p.mu.Lock()
	}
}

// unlock counts the applied frame and releases the proc's lock.
func (p *Proc) unlock() {
	p.applied.Add(1)
	p.mu.Unlock()
}

// fresh builds and publishes a snapshot between two frames: it reflects
// every frame applied before the call.
func (p *Proc) fresh() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Report: p.pl.Report(p.Key(), p.plat),
		Spans:  p.pl.Patterns().Spans()[1:],
		Now:    p.pl.Now(),
		seq:    p.applied.Load(),
		at:     time.Now(),
	}
	p.pub.Store(s)
	p.g.snapshotBuilds.Add(1)
	return s
}

// Report returns an exact snapshot's report: it reflects every frame
// applied before the call, so once Ingest returns, its whole stream. Used
// by `xplagg -snapshot`, tests and goldens; the HTTP surface's path is
// Published.
func (p *Proc) Report() diag.Report {
	return p.fresh().Report
}

// Published returns a snapshot at most maxAge stale: the published one
// if it reflects every frame applied so far (exact) or was built within
// maxAge; otherwise a fresh one. This is the HTTP surface's path: under
// sustained polling a proc pays for at most one build per maxAge, and a
// build holds the proc's lock for one report.
func (p *Proc) Published(maxAge time.Duration) *Snapshot {
	if s := p.pub.Load(); s != nil {
		if s.seq == p.applied.Load() {
			p.g.snapshotHits.Add(1)
			return s // exact: nothing applied since the build
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
// reported dropping before the wire. Counters advance as frames apply,
// so once Ingest returns they include its whole stream.
func (p *Proc) Stats() (batches, records, streams, clientDropped int64) {
	return p.batches.Load(), p.records.Load(), p.streams.Load(), p.clientDropped.Load()
}

// QueueStats returns how many frames waited for the proc's lock. Frames
// are applied on their stream's goroutine with no queue between, so
// depth and capacity are always 0.
func (p *Proc) QueueStats() (depth, capacity int, stalls int64) {
	return 0, 0, p.stalls.Load()
}

// Aggregator is the multi-stream ingest hub.
type Aggregator struct {
	maxStale time.Duration

	mu    sync.Mutex
	procs map[string]*Proc

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
		procs:    map[string]*Proc{},
		maxStale: DefaultSnapshotMaxAge,
	}
	for _, o := range opts {
		o(g)
	}
	return g
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

// Close does nothing. Frames are applied on their stream's goroutine and
// no proc runs a goroutine of its own, so there is nothing to stop or
// drain; an aggregator needs no closing.
func (g *Aggregator) Close() {}

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

// Ingest decodes one complete stream from r and applies each frame to
// the owning proc as soon as it is decoded, on the calling goroutine. It
// is the one ingest path: TCP connections and trace files go through the
// same decoder. Safe for concurrent use — one call per stream. When
// Ingest returns, every frame of the stream has been applied.
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
		Hello: func(h wire.Hello) (wire.Handler, error) {
			p = g.proc(h)
			p.streams.Add(1)
			return p.h, nil
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
// published state versus built fresh.
func (g *Aggregator) SnapshotStats() (served, builds int64) {
	return g.snapshotHits.Load(), g.snapshotBuilds.Load()
}
