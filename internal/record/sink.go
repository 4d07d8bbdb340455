package record

import (
	"sync/atomic"

	"xplacer/internal/shadow"
)

// TableSink is the canonical sink: it applies batches to a shadow memory
// table via RecordAll, carrying its own last-entry lookup hint from batch
// to batch and tallying accesses that hit no traced entry. Apply runs
// under the engine lock, which is also the lock protecting the table —
// a front end whose recorders drain concurrently inspects or mutates the
// table only inside Engine.Locked.
type TableSink struct {
	table *shadow.Table
	// last is the entry the previous batch resolved last; RecordAll trusts
	// it only while it holds the next address (shadow.Entry.Holds).
	last      *shadow.Entry
	untracked atomic.Int64
}

// NewTableSink wraps an existing shadow table.
func NewTableSink(t *shadow.Table) *TableSink {
	return &TableSink{table: t}
}

// Apply implements Sink.
func (s *TableSink) Apply(batch []shadow.Access, _ *Cursor) {
	last, untracked := s.table.RecordAll(batch, s.last)
	s.last = last
	if untracked > 0 {
		s.untracked.Add(int64(untracked))
	}
}

// Table returns the underlying shadow table. Callers must hold the engine
// lock (Engine.Locked) or otherwise exclude concurrent recording while
// using it.
func (s *TableSink) Table() *shadow.Table { return s.table }

// SetTable installs a fresh table, starting a new analysis; the untracked
// count restarts with it, and the lookup hint is dropped, so no batch
// applies against an entry of the old table. Call inside Engine.Locked.
func (s *TableSink) SetTable(t *shadow.Table) {
	s.table = t
	s.last = nil
	s.untracked.Store(0)
}

// Untracked reports the number of applied accesses that hit no traced
// entry (exact after a flush, like the engine's Counts).
func (s *TableSink) Untracked() int64 { return s.untracked.Load() }

// AddUntracked folds in misses detected outside the batch path — e.g. a
// bulk transfer whose range is not in the SMT.
func (s *TableSink) AddUntracked(n int64) { s.untracked.Add(n) }
