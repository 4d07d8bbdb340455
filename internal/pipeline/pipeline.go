// Package pipeline is XPlacer's analysis state: the shadow memory table
// (via record.TableSink), the optional heat map and access-pattern
// classifier, and the wire streams the trace is forwarded to. Its
// methods are the only code that applies a trace event (access batch,
// kernel-launch span, alloc, free, label, transfer) to that state, and
// each forwards the event to the streams after applying it.
//
// Every trace, live or replayed, has one Pipeline. The front ends
// (trace.Tracer, xplrt) make theirs the recording engine's sink and call
// it at their interception points, under the engine lock. The readers of
// a wire stream — the fleet aggregator (internal/agg) and the
// `xplacer -trace-budget` replay — drive theirs through Handler, which
// also holds the checks only untrusted input needs. A Pipeline is not
// goroutine-safe.
package pipeline

import (
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// maxAllocBytes bounds one remote allocation's traced range: the shadow
// table allocates one byte per 32-bit word, so a hostile alloc frame
// could otherwise make the pipeline reserve gigabytes.
const maxAllocBytes = 1 << 30

// Pipeline owns one trace's analysis state.
type Pipeline struct {
	tsink   *record.TableSink
	hm      *record.HeatmapSink // nil until EnableHeatmap
	ps      *pattern.Sink       // nil until EnablePatterns
	streams []*wire.StreamSink
	// now is the stream clock: the time of Handler's last span or clock
	// frame.
	now machine.Duration
}

// New returns a pipeline over an empty shadow table, with no heat map,
// classifier or stream attached.
func New() *Pipeline {
	return &Pipeline{tsink: record.NewTableSink(shadow.NewTable())}
}

// Reset starts a new analysis: a fresh table, its untracked count at
// zero, and no heat map or classifier. Attached streams stay.
func (p *Pipeline) Reset() {
	p.tsink.SetTable(shadow.NewTable())
	p.hm, p.ps = nil, nil
}

// EnableHeatmap attaches a heat map over the table and returns it. With
// every > 0 it closes an epoch each time clock (the simulated clock, or
// Now for a stream reader) crosses an interval boundary.
func (p *Pipeline) EnableHeatmap(every machine.Duration, clock func() machine.Duration) *record.HeatmapSink {
	p.hm = record.NewHeatmapSink(p.Table())
	p.hm.RotateOnClock(every, clock)
	return p.hm
}

// EnablePatterns attaches an access-pattern classifier over the table
// and returns it. clock (optional) stamps each span's start time.
func (p *Pipeline) EnablePatterns(clock func() machine.Duration) *pattern.Sink {
	p.ps = pattern.NewSink(p.Table())
	p.ps.SetClock(clock)
	return p.ps
}

// AddStream attaches a wire stream; it receives every later event.
func (p *Pipeline) AddStream(ss *wire.StreamSink) { p.streams = append(p.streams, ss) }

// WantsSpans reports whether a classifier or a stream is attached. Only
// then does a front end make a kernel launch a drain point, so without
// them the flush schedule (and the heat map's clock epochs) stays put.
func (p *Pipeline) WantsSpans() bool { return p.ps != nil || len(p.streams) > 0 }

// Apply implements record.Sink: table, heat map, classifier, streams.
func (p *Pipeline) Apply(batch []shadow.Access, _ *record.Cursor) {
	p.tsink.Apply(batch, nil)
	if p.hm != nil {
		p.hm.Apply(batch, nil)
	}
	if p.ps != nil {
		p.ps.Apply(batch, nil)
	}
	for _, ss := range p.streams {
		ss.Apply(batch, nil)
	}
}

// Span opens a kernel-launch attribution span.
func (p *Pipeline) Span(name string) {
	if p.ps != nil {
		p.ps.BeginSpan(name)
	}
	for _, ss := range p.streams {
		ss.Span(name)
	}
}

// Alloc inserts the allocation's table entry. An allocation overlapping
// a live or retained entry is an error and changes nothing.
func (p *Pipeline) Alloc(a wire.AllocInfo) error {
	_, err := p.Table().Insert(&memsim.Alloc{
		ID: a.ID, Base: a.Base, Size: a.Size, Kind: a.Kind, Label: a.Label,
	}, a.Fn)
	if err != nil {
		return err
	}
	for _, ss := range p.streams {
		ss.Alloc(a)
	}
	return nil
}

// Free marks the allocation freed; its shadow bytes survive until the
// next diagnostic resets the table (delayed shadow release, §III-C).
func (p *Pipeline) Free(id int) {
	p.Table().MarkFreed(id)
	for _, ss := range p.streams {
		ss.Free(id)
	}
}

// Label relabels the allocation.
func (p *Pipeline) Label(id int, label string) {
	if e := p.Table().FindByID(id); e != nil {
		e.Label = label
	}
	for _, ss := range p.streams {
		ss.Label(id, label)
	}
}

// Transfer applies an explicit copy (shadow.Table.Transfer); a range
// outside the table counts as untracked.
func (p *Pipeline) Transfer(tr wire.TransferInfo) {
	if !p.Table().Transfer(tr.ID, tr.Dir == wire.HostToDevice, tr.Off, tr.N) {
		p.tsink.AddUntracked(1)
	}
	for _, ss := range p.streams {
		ss.Transfer(tr.ID, tr.Dir, tr.Off, tr.N)
	}
}

// Handler returns the frame callbacks that drive the pipeline, for
// wire.ReadStream; span and clock frames set Now. Oversized allocations
// and overlaps (a client bug, or replayed address reuse) are skipped
// rather than fatal: one misbehaving stream must not take its consumer
// down. Batches are applied before the callback returns, so the decoder
// may reuse them.
func (p *Pipeline) Handler() wire.Handler {
	return wire.Handler{
		Batch: func(batch []shadow.Access) { p.Apply(batch, nil) },
		Span: func(name string, at machine.Duration) {
			p.now = at
			p.Span(name)
		},
		Clock: func(at machine.Duration) { p.now = at },
		Alloc: func(a wire.AllocInfo) {
			if a.Size >= 0 && a.Size <= maxAllocBytes {
				_ = p.Alloc(a)
			}
		},
		Free:     p.Free,
		Label:    p.Label,
		Transfer: p.Transfer,
	}
}

// Table returns the shadow table.
func (p *Pipeline) Table() *shadow.Table { return p.tsink.Table() }

// Untracked reports the accesses and transfers that hit no table entry
// since New or Reset (exact once batches have drained).
func (p *Pipeline) Untracked() int64 { return p.tsink.Untracked() }

// Now returns the stream clock.
func (p *Pipeline) Now() machine.Duration { return p.now }

// Patterns returns the attached classifier, or nil. For a stream reader
// its spans after span 0 are the stream's span frames.
func (p *Pipeline) Patterns() *pattern.Sink { return p.ps }

// Summarize adds the attached sinks' heat-map and pattern blocks to r,
// with penalties scaled to plat's coalescing knob as the cost model
// charged them.
func (p *Pipeline) Summarize(r *diag.Report, plat *machine.Platform) {
	if p.hm != nil {
		r.Heatmap = diag.SummarizeHeatmap(p.hm, 64)
	}
	if p.ps != nil {
		r.Patterns = diag.SummarizePatterns(p.ps, plat.CoalescePenaltyPct)
		r.Patterns.AnnotateHeatmap(r.Heatmap)
	}
}

// Report assembles the current diag.Report as `xplacer -json` emits it
// for the equivalent in-process run (kernel attribution needs the
// client's timeline and is not part of a trace).
func (p *Pipeline) Report(title string, plat *machine.Platform) diag.Report {
	r := diag.Analyze(p.Table().Entries(), title, detect.DefaultOptions())
	p.Summarize(&r, plat)
	return r
}
