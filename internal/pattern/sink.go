package pattern

import (
	"sort"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
)

// Stream is one (kernel span, allocation, device) access stream and its
// accumulated structure.
type Stream struct {
	Span    int
	Entry   *shadow.Entry
	Dev     machine.Device
	Tracker Tracker
}

// SpanInfo describes one kernel span the sink attributed accesses to.
// Span 0 is the pre-first-kernel window; host accesses recorded after a
// launch attribute to that launch's span (the device column tells them
// apart).
type SpanInfo struct {
	Seq  int
	Name string
	// Start is the simulated time the span began, when the sink has a
	// clock (SetClock); 0 otherwise.
	Start machine.Duration
}

// streamKey identifies a stream; pointer identity of the shadow entry is
// what the table-backed sinks use too.
type streamKey struct {
	span int
	e    *shadow.Entry
	dev  machine.Device
}

// Sink folds drained access batches into per-(span, allocation, device)
// Trackers. It implements record.Sink and rides the engine's existing
// drain path: scalar batches cost one delta update per access, RLE range
// records one O(1) NoteRun per record — zero new work on the per-access
// hot path. Apply runs under the engine lock; BeginSpan and the report
// accessors must be called inside Engine.Locked or with recording
// quiescent.
type Sink struct {
	table   *shadow.Table
	last    *shadow.Entry // lookup hint carried between batches (Table.Each)
	cur     *Stream       // stream cursor: the common same-stream case is one compare
	streams map[streamKey]*Stream
	order   []*Stream
	spans   []SpanInfo
	now     func() machine.Duration
}

// NewSink observes accesses resolved against t, starting in span 0 (the
// pre-first-kernel window).
func NewSink(t *shadow.Table) *Sink {
	return &Sink{
		table:   t,
		streams: map[streamKey]*Stream{},
		spans:   []SpanInfo{{Seq: 0, Name: "(start)"}},
	}
}

// SetClock attaches the simulated clock; subsequent BeginSpan calls stamp
// their span's start time. now is sampled once per span, never per access.
func (s *Sink) SetClock(now func() machine.Duration) { s.now = now }

// BeginSpan opens a new attribution span (a kernel launch). The caller
// must flush the engine first and invoke this under Engine.Locked, so
// every access recorded before the launch lands in the previous span —
// this is what "attributed via the timeline clock" means operationally:
// the launch is a drain point, and the clock is sampled at it.
func (s *Sink) BeginSpan(name string) {
	sp := SpanInfo{Seq: len(s.spans), Name: name}
	if s.now != nil {
		sp.Start = s.now()
	}
	s.spans = append(s.spans, sp)
	s.cur = nil
}

// Apply implements record.Sink. A scalar folds as a run of one element
// (NoteRun with count 1 is Note); elements that start in no live entry
// are skipped: the TableSink tallies those.
func (s *Sink) Apply(batch []shadow.Access, _ *record.Cursor) {
	s.last, _ = s.table.Each(batch, s.last, s.notePiece)
}

// notePiece folds one piece shadow.Table.Each resolved into the current
// span's stream for its entry and device.
func (s *Sink) notePiece(e *shadow.Entry, a *shadow.Access, addr memsim.Addr, n int) {
	s.streamOf(len(s.spans)-1, e, a.Dev).Tracker.NoteRun(addr, n, int64(a.Stride), int64(a.Size))
}

// streamOf returns (creating on first touch) the stream for a key.
func (s *Sink) streamOf(span int, e *shadow.Entry, dev machine.Device) *Stream {
	if c := s.cur; c != nil && c.Span == span && c.Entry == e && c.Dev == dev {
		return c
	}
	k := streamKey{span: span, e: e, dev: dev}
	st := s.streams[k]
	if st == nil {
		st = &Stream{Span: span, Entry: e, Dev: dev}
		s.streams[k] = st
		s.order = append(s.order, st)
	}
	s.cur = st
	return st
}

// Row is one classified stream for reporting.
type Row struct {
	SpanSeq int
	Span    string
	Start   machine.Duration
	AllocID int
	Alloc   string
	Dev     machine.Device
	Result  Result
}

// Rows classifies every stream and returns the rows in (span, allocation,
// device) order. Call inside Engine.Locked or with recording quiescent;
// flush the engine first so buffered accesses are included.
func (s *Sink) Rows() []Row {
	rows := make([]Row, 0, len(s.order))
	for _, st := range s.order {
		sp := s.spans[st.Span]
		rows = append(rows, Row{
			SpanSeq: st.Span,
			Span:    sp.Name,
			Start:   sp.Start,
			AllocID: st.Entry.AllocID,
			Alloc:   st.Entry.Label,
			Dev:     st.Dev,
			Result:  st.Tracker.Classify(),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].SpanSeq != rows[j].SpanSeq {
			return rows[i].SpanSeq < rows[j].SpanSeq
		}
		if rows[i].AllocID != rows[j].AllocID {
			return rows[i].AllocID < rows[j].AllocID
		}
		return rows[i].Dev < rows[j].Dev
	})
	return rows
}

// Spans returns a copy of the spans seen so far, in sequence order.
func (s *Sink) Spans() []SpanInfo { return append([]SpanInfo(nil), s.spans...) }
