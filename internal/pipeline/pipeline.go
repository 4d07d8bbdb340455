// Package pipeline is XPlacer's one frame-driven analysis pipeline: the
// consumers a trace feeds — the shadow memory table (via
// record.TableSink), the per-word access heat map, and the per-span
// access-pattern classifier — driven by the wire format's frame
// vocabulary (batch, span, clock, alloc, free, label, transfer) and
// assembled into a diag.Report. Every consumer of a decoded trace goes
// through it: the fleet aggregator (internal/agg) holds one per
// (tenant, process), and `xplacer -trace-budget` replays its budgeted
// wire log through a fresh one.
//
// A Pipeline is not goroutine-safe; one owner calls its methods in frame
// order.
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
	plat  *machine.Platform
	table *shadow.Table
	tsink *record.TableSink
	hm    *record.HeatmapSink
	ps    *pattern.Sink
	// now is the stream clock: the time of the last span or clock frame.
	now machine.Duration
}

// New returns an empty pipeline. plat scales the pattern penalties in
// the report; heatEpoch, when positive, closes a heat-map epoch every
// interval of stream time (as xplacer -heatmap-epoch does live).
func New(plat *machine.Platform, heatEpoch machine.Duration) *Pipeline {
	table := shadow.NewTable()
	p := &Pipeline{
		plat:  plat,
		table: table,
		tsink: record.NewTableSink(table),
		hm:    record.NewHeatmapSink(table),
		ps:    pattern.NewSink(table),
	}
	clock := func() machine.Duration { return p.now }
	p.ps.SetClock(clock)
	p.hm.RotateOnClock(heatEpoch, clock)
	return p
}

// Batch applies one access batch. Sink order matches an in-process
// engine: table first, then heat map, then patterns.
func (p *Pipeline) Batch(batch []shadow.Access) {
	p.tsink.Apply(batch, nil)
	p.hm.Apply(batch, nil)
	p.ps.Apply(batch, nil)
}

// Span opens a kernel-launch attribution span at stream time at.
func (p *Pipeline) Span(name string, at machine.Duration) {
	p.now = at
	p.ps.BeginSpan(name)
}

// Clock advances the stream clock.
func (p *Pipeline) Clock(at machine.Duration) { p.now = at }

// Alloc mirrors trace.TraceAlloc's table insert. Oversized allocations
// and overlaps (a client bug, or replayed address reuse) are skipped
// rather than fatal: one misbehaving stream must not take its consumer
// down.
func (p *Pipeline) Alloc(a wire.AllocInfo) {
	if a.Size < 0 || a.Size > maxAllocBytes {
		return
	}
	_, _ = p.table.Insert(&memsim.Alloc{
		ID: a.ID, Base: a.Base, Size: a.Size, Kind: a.Kind, Label: a.Label,
	}, a.Fn)
}

// Free marks the allocation freed (delayed shadow release).
func (p *Pipeline) Free(id int) { p.table.MarkFreed(id) }

// Label relabels the allocation.
func (p *Pipeline) Label(id int, label string) {
	if e := p.table.FindByID(id); e != nil {
		e.Label = label
	}
}

// Transfer applies an explicit copy (shadow.Table.Transfer); a range
// outside the table counts as untracked.
func (p *Pipeline) Transfer(tr wire.TransferInfo) {
	if !p.table.Transfer(tr.ID, tr.Dir == wire.HostToDevice, tr.Off, tr.N) {
		p.tsink.AddUntracked(1)
	}
}

// Handler returns the frame callbacks that drive the pipeline, for
// wire.ReadStream. Decoded batches are applied before the callback
// returns, so the decoder may reuse them.
func (p *Pipeline) Handler() wire.Handler {
	return wire.Handler{
		Batch:    p.Batch,
		Span:     p.Span,
		Clock:    p.Clock,
		Alloc:    p.Alloc,
		Free:     p.Free,
		Label:    p.Label,
		Transfer: p.Transfer,
	}
}

// Now returns the stream clock.
func (p *Pipeline) Now() machine.Duration { return p.now }

// Heatmap returns the pipeline's heat-map sink.
func (p *Pipeline) Heatmap() *record.HeatmapSink { return p.hm }

// Patterns returns the pipeline's pattern sink; its spans after span 0
// are the stream's (name, time) span frames.
func (p *Pipeline) Patterns() *pattern.Sink { return p.ps }

// Report assembles the current diag.Report: summaries, findings, heat
// map, and pattern blocks, as `xplacer -json` emits them for the
// equivalent in-process run (kernel attribution needs the client's
// timeline and is not part of a trace).
func (p *Pipeline) Report(title string) diag.Report {
	r := diag.Analyze(p.table.Entries(), title, detect.DefaultOptions())
	r.Heatmap = diag.SummarizeHeatmap(p.hm, 64)
	r.Patterns = diag.SummarizePatterns(p.ps, p.plat.CoalescePenaltyPct)
	r.Patterns.AnnotateHeatmap(r.Heatmap)
	return r
}
