// Package record is the shared recording engine behind XPlacer's two
// instrumentation front ends: the simulated runtime (internal/trace) and
// the plain-Go runtime (xplrt). Both front ends used to carry their own
// copy of the same machinery — access buffers, batched drains,
// enable/disable, flush semantics. The engine owns exactly one
// implementation of it, parameterized by a small Sink interface. Each
// front end's sink is its pipeline.Pipeline, which hands a drained batch
// to every observer of the access stream (the canonical shadow-table
// sink, the heat map, the pattern classifier, wire streams), so each
// plugs in once and works for every front end. The table-backed sinks
// resolve a drained batch against the shadow table through one walk,
// shadow.Table.Each, each carrying its own last-entry lookup hint
// between batches.
//
// # Hot path
//
// Record appends to an execution-local buffer slot: the recording
// goroutine's current P picks the slot (a procPin hint), so concurrent
// recorders land on different slots and touch no shared cache lines —
// unlike the previous design, which sharded buffers by *address* and made
// two goroutines sweeping the same allocation fight over one shard lock.
// Each record carries a global order stamp, and the drain sweep gathers
// the occupied slots and merges the records back into stamp order before
// the sinks see them, so the per-word ordering the detectors depend on is
// reconstructed at drain time instead of being imposed on the hot path.
//
// A stamp numbers a run of records, not one record. Under the slot lock
// a recorder loads the stamp counter; if it still equals the slot's last
// stamp, no record anywhere has been stamped since, and the new record
// reuses that stamp. Only otherwise does it take a fresh stamp, an atomic
// increment. A stamp value therefore belongs to one slot and repeats only
// there, in position order, and records are ordered by (stamp, position).
// The same check lets the slot coalesce: with no record stamped anywhere
// since its last one, a scalar access that contiguously continues that
// record grows it into a run (extendRun) instead of adding a record. A
// slot sweeps after slotCap Record and RecordRange calls, however few
// records they left, so sweeps fire where they would if every call were
// a record of its own. Kind counts are derived from the drained records,
// not bumped per access.
//
// A Buffer is the still-cheaper variant for single-owner
// (goroutine-private) recording, used by xplrt's DeviceScope: it needs
// neither slot selection nor stamps, because one owner appending in
// program order and applying the whole buffer as one batch is already
// ordered. It coalesces with the same rule. Neither path touches a sink
// until a buffer fills or a flush point is reached.
//
// # Occupied-slot sweep
//
// The engine keeps a 64-bit mask with one bit per slot, set while the
// slot holds records, so a sweep locks only the slots that have something
// to drain. Three rules keep that partial sweep exact:
//
//   - A recorder sets its slot's bit under the slot lock, before it takes
//     the record's stamp.
//   - A sweep clears a bit only while it holds that slot's lock.
//   - After locking the slots it read from the mask, a sweep reads the
//     mask again and locks any new bits, until a read shows none.
//
// Call that last read the cut. A gathered record was stamped while its
// recorder held the slot, before the sweep took it, so before the cut.
// A record stamped before the cut had its bit set then, and the bit stays
// set until this sweep clears it, so the sweep locked its slot; the
// recorder's critical section cannot overlap the sweep's hold, so the
// record is gathered. So a record r that the sweep leaves behind was
// stamped after the cut, and it cannot precede any record d that drains
// in (stamp, position) order. If r took a fresh stamp, the counter issued
// it after every stamp d can carry. If r reused a stamp, the counter
// still showed that stamp when r was recorded, after the cut, so it is
// the largest stamp issued yet: no smaller than d's. Nor equal: equal
// stamps share a slot, and the sweep that drained d emptied that slot and
// zeroed its last stamp, so the slot's next record took a fresh one.
// Either way no record left behind precedes one that drains, whatever
// slots its goroutine hopped between: every sweep drains a prefix of the
// (stamp, position) order.
//
// # Flush ordering guarantees
//
// These are the engine-wide ordering rules every front end inherits:
//
//  1. For any single word, accesses recorded through Record/RecordRange
//     apply to the sinks in recording order. (The drain merge restores
//     global (stamp, position) order, which is stronger: the entire
//     Record stream applies in the order the stamps were taken.)
//  2. Flush drains every occupied slot; after it returns, everything
//     recorded through Record before the call is visible to the sinks.
//  3. A Buffer drain flushes the shared slots first, so accesses
//     recorded through Record before a buffer section (e.g. CPU
//     initialization preceding a GPU scope) apply before the buffer's
//     own batch.
//  4. Sink applications are serialized by the engine's lock; front ends
//     run their own sink inspections (diagnostics, table mutation) under
//     Locked to order them against concurrent drains.
//
// Front-end flush points (diagnostics, transfers, frees, scope exits)
// are implemented as Flush followed by a Locked inspection, which is
// what makes "flush, then the bulk effect" sequences like TraceTransfer
// land after all buffered element accesses.
package record

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

const (
	// NumSlots fixes the number of per-P buffer slots. The recording
	// goroutine's current P indexes the array (mod NumSlots), so up to
	// NumSlots processors record with no slot contention at all; a
	// contended or stolen slot falls over to the next free one. It is
	// also the width of the engine's occupied-slot mask.
	NumSlots = 64
	// slotCap is the per-slot buffer capacity and the number of Record
	// and RecordRange calls after which a slot triggers an engine sweep
	// (per-word ordering needs the merge, so slots cannot drain
	// individually).
	slotCap = 1024
	// bufferCap is the per-Buffer capacity. Buffers are goroutine-private;
	// the capacity stays modest (24 KiB of records) so that the buffers of
	// many concurrent owners stay cache-resident.
	bufferCap = 1024
	// maxRun bounds one record's element count, stride, and size to the
	// 32-bit fields of shadow.Access; RecordRange splits oversized sweeps
	// and Record clamps a (nonsensical) multi-gigabyte element access.
	maxRun = 1<<31 - 1
	// lineShift is the 64-byte cache-line granularity used to decide when
	// a range record applies at record time (see Engine.recordRun).
	lineShift = 6
)

// clampSize bounds an element size to Access's 32-bit field. Element
// accesses are a few bytes in practice (bulk effects are transfers, not
// Records), so the branch never fires outside adversarial inputs.
func clampSize(size int64) int32 {
	if size > maxRun {
		return maxRun
	}
	return int32(size)
}

// setScalar writes one scalar access into a. Field-by-field stores
// instead of assigning a 6-field struct literal: the literal makes the
// compiler materialize the Access on the stack with narrow stores and
// reload it with wide ones — a store-forwarding stall on every access
// that measurably slows the scalar hot path.
func setScalar(a *shadow.Access, dev machine.Device, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	a.Dev, a.Kind, a.Size = dev, kind, clampSize(size)
	a.Addr = addr
	a.Count, a.Stride = 0, 0
}

// extendRun is the append-time coalescing rule both recording paths
// share: a scalar access that contiguously continues record p — same
// device, kind and element size, starting exactly where p's coverage
// ends — grows p's run count instead of becoming a record of its own,
// and extendRun reports whether it did. The caller has checked the
// start: each path keeps the end of its last record's last element
// (Buffer.next, pslot.next), so an access elsewhere — a random gather —
// costs one compare and never loads the record. Only gapless
// shapes grow: a scalar, or a contiguous (stride == size) run below
// maxRun elements; a gapped run's next element would not start at its
// end. A sweep of N contiguous elements then occupies one RLE record
// instead of N scalars. Exact per word: a contiguous run replays element
// by element with one device and kind (shadow.Entry.recordRange,
// HeatmapSink.countPiece, pattern.Tracker.NoteRun), so per-word results and
// per-element counts equal the scalar explosion's. Zero and negative
// sizes never grow: a zero-size scalar can touch a word that a zero-size
// run does not.
func extendRun(p *shadow.Access, dev machine.Device, size int64, kind memsim.AccessKind) bool {
	if int64(p.Size) != size || p.Dev != dev || p.Kind != kind || size <= 0 {
		return false
	}
	if p.Count <= 1 {
		p.Count, p.Stride = 2, p.Size
		return true
	}
	if p.Stride != p.Size || p.Count == maxRun {
		return false
	}
	p.Count++
	return true
}

// Cursor is the second parameter of Sink.Apply. It carries nothing: each
// sink keeps its own lookup hint, and the engine passes nil. The type
// stays only so existing Sink implementations keep their signature.
type Cursor struct{}

// Sink consumes drained access batches. Apply calls are serialized by the
// engine's lock and receive batches in per-word recording order. The
// cursor argument is unused (nil from the engine).
type Sink interface {
	Apply(batch []shadow.Access, cur *Cursor)
}

// Counts tallies recorded accesses by kind.
type Counts struct {
	Reads, Writes, ReadWrites int64
}

// pslot is one execution-local buffer: the access records and their
// order stamps (parallel arrays of fixed length slotCap once allocated,
// filled up to n), the stamp of the slot's last record, and the number
// of Record and recordRun calls since the slot last drained. The call
// count, not n, is the fill trigger: a coalesced scalar adds a call but
// no record, and counting calls keeps every sweep where it would be if
// each call were a record of its own. The hot path writes only these
// integers and the records' plain fields — no slice header, so no GC
// write barrier. The leading pad keeps concurrently-owned slots off each
// other's cache lines — the whole point of per-P buffering.
type pslot struct {
	_        [64]byte
	held     atomic.Bool
	n, calls int
	// last is the stamp of the slot's last record, 0 while the slot is
	// empty (a sweep or reset zeroes it with n and calls).
	last uint64
	// next is where an access must start to continue the last record:
	// the end of its last element.
	next memsim.Addr
	buf  []shadow.Access
	seq  []uint64
}

// tryLock attempts to take slot ownership without blocking.
func (s *pslot) tryLock() bool { return s.held.CompareAndSwap(false, true) }

// unlock releases slot ownership.
func (s *pslot) unlock() { s.held.Store(false) }

// stamp returns the order stamp for the record the caller, holding s,
// adds next, and whether it reuses the slot's last stamp. The stamp is
// reused while the engine counter still equals it: then no record
// anywhere has been stamped since the slot's last one, so the new record
// follows that one directly in the global order and position within the
// slot orders the two. Otherwise a fresh stamp is taken.
func (s *pslot) stamp(seq *atomic.Uint64) (q uint64, reused bool) {
	if q = seq.Load(); q != 0 && q == s.last {
		return q, true
	}
	q = seq.Add(1)
	s.last = q
	return q, false
}

// empty discards the slot's records; the caller holds the slot.
func (s *pslot) empty() { s.n, s.calls, s.last = 0, 0, 0 }

// Engine is the concurrency-safe recording engine. Record may be called
// from concurrent goroutines; sink application happens in batches under
// the engine lock. The zero value is not usable; call NewEngine.
type Engine struct {
	// mu serializes sink application and guards the sink list; front ends
	// take it through Locked for their own sink-state inspections.
	// Lock order is always flushMu -> slot locks -> mu, never the reverse;
	// nothing acquires flushMu while holding a slot lock or mu (which is
	// why Locked's fn must not call Flush).
	mu    sync.Mutex
	sinks []Sink
	// flushMu serializes slot sweeps and resets (see Flush).
	flushMu sync.Mutex

	// disabled is the recording switch; the zero value means enabled, so
	// the hot path pays one atomic load and no initialization check.
	disabled atomic.Bool
	// occupied has bit i set while slot i holds records. A recorder sets
	// the bit when it takes an empty slot, a sweep or reset clears it
	// while holding the slot's lock, so under the slot lock the bit is
	// set exactly when the slot is non-empty. A sweep locks only these
	// slots, and a Flush that finds the mask zero returns at once — so
	// Buffer drains in scope-only workloads (no slot-path recording at
	// all) pay no slot lock for ordering guarantee 3.
	occupied atomic.Uint64
	// seq issues the global order stamps the drain merge orders by. A
	// stamp numbers a run of records, not one record: a slot reuses its
	// last stamp while no other stamp has been taken (pslot.stamp), so a
	// stamp value belongs to one slot and repeats only there, in position
	// order. Stamps are taken while holding a slot lock, so within one
	// slot they never decrease and the merge input is a set of sorted
	// runs.
	seq atomic.Uint64

	reads, writes, readWrites atomic.Int64

	slots [NumSlots]pslot

	// scratch and scratchSeq are the reusable merge buffers a sweep
	// gathers the occupied slots' records into; guarded by flushMu.
	scratch    []shadow.Access
	scratchSeq []uint64
}

// NewEngine returns an enabled engine draining into the given sinks.
func NewEngine(sinks ...Sink) *Engine {
	return &Engine{sinks: sinks}
}

// AddSink attaches another sink. Accesses already buffered are flushed to
// the existing sinks first, so the new sink observes only batches
// recorded after AddSink returns.
func (e *Engine) AddSink(s Sink) {
	e.Flush()
	e.mu.Lock()
	e.sinks = append(e.sinks, s)
	e.mu.Unlock()
}

// SetEnabled switches access recording on or off. Already buffered
// accesses still drain at the next flush point.
func (e *Engine) SetEnabled(on bool) { e.disabled.Store(!on) }

// Enabled reports whether access recording is active.
func (e *Engine) Enabled() bool { return !e.disabled.Load() }

// lockSlot picks and locks an execution-local slot with room for one
// more call: the current P's slot when free (the uncontended common case
// — one cache line no other P is writing), otherwise the next free slot.
// The pin is released before the CAS, so the hint can go stale under
// migration; that costs locality, not correctness — the order stamps
// restore order at drain time. The search never blocks on a held slot (a
// preempted holder must not stall recording); after a full empty circuit
// it yields the processor.
//
// A slot is never handed out full (slotCap calls since its last drain).
// The recorder that fills a slot releases it before flushing, so another
// recorder can take it in between; that one releases it, flushes too and
// searches again. A slot handed out empty is marked occupied before
// lockSlot returns, so the caller's stamp is taken after its bit is set.
func (e *Engine) lockSlot() *pslot {
	i := procHint() % NumSlots
	for spins := 1; ; spins++ {
		s := &e.slots[i]
		if s.tryLock() {
			switch {
			case s.calls == 0:
				if s.buf == nil {
					s.buf = make([]shadow.Access, slotCap)
					s.seq = make([]uint64, slotCap)
				}
				e.mark(uint64(1) << i)
				return s
			case s.calls < slotCap:
				return s
			}
			s.unlock()
			e.Flush()
			continue
		}
		if i++; i == NumSlots {
			i = 0
		}
		if spins%NumSlots == 0 {
			// All slots busy (massive oversubscription, or a sweep
			// holding every occupied slot): let the holders run.
			runtime.Gosched()
		}
	}
}

// mark sets a slot's bit in the occupied mask. go 1.22 has no atomic
// Or, so it is a CAS loop; recorders call it only on an empty slot.
func (e *Engine) mark(bit uint64) {
	for {
		m := e.occupied.Load()
		if e.occupied.CompareAndSwap(m, m|bit) {
			return
		}
	}
}

// Record buffers one access in an execution-local slot, sweeping the
// engine once the slot has taken slotCap calls. Safe for concurrent
// callers. When no record anywhere has been stamped since the slot's
// last one, an access that contiguously continues that record grows it
// (extendRun) instead of adding a record.
func (e *Engine) Record(dev machine.Device, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	if e.disabled.Load() {
		return
	}
	s := e.lockSlot()
	if q, reused := s.stamp(&e.seq); !reused || addr != s.next || !extendRun(&s.buf[s.n-1], dev, size, kind) {
		n := s.n
		setScalar(&s.buf[n], dev, addr, size, kind)
		s.seq[n] = q
		s.n = n + 1
	}
	s.next = addr + memsim.Addr(size)
	s.calls++
	full := s.calls >= slotCap
	s.unlock()
	if full {
		e.Flush()
	}
}

// RecordRange buffers a strided sweep — count elements of size bytes, the
// k-th starting at base + k*stride — as a single run-length-encoded
// record instead of count scalar records. Safe for concurrent callers. A
// negative stride (descending sweep) is normalized: it touches the same
// words, and within one range all elements share device and kind, so the
// per-word shadow result is identical.
func (e *Engine) RecordRange(dev machine.Device, base memsim.Addr, count int, stride, size int64, kind memsim.AccessKind) {
	if e.disabled.Load() || count <= 0 || size <= 0 {
		return
	}
	if stride < 0 {
		base += memsim.Addr(int64(count-1) * stride)
		stride = -stride
	}
	if count == 1 {
		e.Record(dev, base, size, kind)
		return
	}
	if stride > maxRun {
		// Stride too wide for the 32-bit run encoding (never hit by real
		// element sweeps); degrade to scalar records.
		for k := 0; k < count; k++ {
			e.Record(dev, base+memsim.Addr(int64(k)*stride), size, kind)
		}
		return
	}
	for count > maxRun {
		e.recordRun(dev, base, maxRun, stride, size, kind)
		base += memsim.Addr(int64(maxRun) * stride)
		count -= maxRun
	}
	e.recordRun(dev, base, count, stride, size, kind)
}

// recordRun buffers one encodable run (1 <= count <= maxRun, 0 <= stride
// <= maxRun). The run buffers in a slot like any scalar — one stamped
// record, ordered by the drain merge — with one historical wrinkle kept
// on purpose: a run spanning more than one 64-byte line flushes the
// engine immediately after buffering, so it reaches the sinks at record
// time. Clock-driven sinks (HeatmapSink.RotateOnClock) attribute a batch
// to the simulated time it drains; wide runs have applied at record time
// since the range encoding was introduced, and moving them to the next
// natural flush point would silently shift their epoch attribution.
func (e *Engine) recordRun(dev machine.Device, base memsim.Addr, count int, stride, size int64, kind memsim.AccessKind) {
	span := int64(count-1)*stride + size
	s := e.lockSlot()
	q, _ := s.stamp(&e.seq)
	n := s.n
	a := &s.buf[n]
	a.Dev, a.Kind, a.Size = dev, kind, clampSize(size)
	a.Addr = base
	a.Count, a.Stride = int32(count), int32(stride)
	s.seq[n] = q
	s.n = n + 1
	s.next = base + memsim.Addr(span)
	s.calls++
	full := s.calls >= slotCap
	multiLine := uint64(base)>>lineShift != (uint64(base)+uint64(span-1))>>lineShift
	s.unlock()
	if full || multiLine {
		e.Flush()
	}
}

// applyLocked feeds the batch to every sink; the caller holds e.mu.
func (e *Engine) applyLocked(batch []shadow.Access) {
	for _, s := range e.sinks {
		s.Apply(batch, nil)
	}
}

// tally adds a drained batch's element accesses to the kind totals: a
// record counts its Elems, so a run counts like its scalar explosion.
// Out-of-range kinds merge into ReadWrites like the sinks treat them.
func (e *Engine) tally(batch []shadow.Access) {
	// Register accumulators: indexing a counter array by kind would chain
	// every iteration through a store and reload of the same slot.
	var r, w, rw int64
	for i := range batch {
		switch n := batch[i].Elems(); batch[i].Kind {
		case memsim.Read:
			r += n
		case memsim.Write:
			w += n
		default:
			rw += n
		}
	}
	e.reads.Add(r)
	e.writes.Add(w)
	e.readWrites.Add(rw)
}

// seqMerge sorts the gathered records by order stamp (both slices in
// lockstep). The input is a concatenation of per-slot runs, each already
// in (stamp, position) order, and a stamp value lives in one slot only:
// records sharing a stamp are contiguous in the input and in position
// order, so a stable sort by stamp restores (stamp, position) order
// exactly. An unstable sort could reorder them.
type seqMerge struct {
	acc []shadow.Access
	seq []uint64
}

func (m seqMerge) Len() int           { return len(m.seq) }
func (m seqMerge) Less(i, j int) bool { return m.seq[i] < m.seq[j] }
func (m seqMerge) Swap(i, j int) {
	m.acc[i], m.acc[j] = m.acc[j], m.acc[i]
	m.seq[i], m.seq[j] = m.seq[j], m.seq[i]
}

// lockOccupied locks every slot whose occupied bit is set and returns
// the set it locked. It re-reads the mask after each round of locking and
// stops at the first read that shows no bit it does not hold: that read
// is the sweep's cut (see the package doc). The caller holds flushMu, so
// no bit it read can clear before it locks the slot. Recorders never
// block while holding a slot, so spinning on one cannot deadlock.
func (e *Engine) lockOccupied() uint64 {
	var held uint64
	for {
		m := e.occupied.Load() &^ held
		if m == 0 {
			return held
		}
		held |= m
		for ; m != 0; m &= m - 1 {
			s := &e.slots[bits.TrailingZeros64(m)]
			for !s.tryLock() {
				runtime.Gosched()
			}
		}
	}
}

// releaseEmptied clears the held slots' occupied bits, then unlocks them.
// The caller has emptied every held slot; clearing before unlocking keeps
// each bit set exactly while its slot holds records.
func (e *Engine) releaseEmptied(held uint64) {
	for {
		m := e.occupied.Load()
		if e.occupied.CompareAndSwap(m, m&^held) {
			break
		}
	}
	for ; held != 0; held &= held - 1 {
		e.slots[bits.TrailingZeros64(held)].unlock()
	}
}

// sweep gathers the occupied slots' pending records, merges them back
// into global (stamp, position) order, and applies the result to the
// sinks as one batch; the caller holds flushMu and has seen a bit set in
// the mask, so the batch is never empty.
//
// Every gathered slot stays locked until all are gathered, and the
// locked set is closed under the mask's cut (lockOccupied), so the batch
// is exactly the records stamped before the cut: a recording goroutine
// that migrated between slots mid-stream either got both records into
// the batch or lands both in the next sweep — releasing slots one by one
// as they are copied would let a later stamp drain in this sweep while
// an earlier stamp for the same word waits in an already-released slot.
func (e *Engine) sweep() {
	e.scratch = e.scratch[:0]
	e.scratchSeq = e.scratchSeq[:0]
	held := e.lockOccupied()
	for m := held; m != 0; m &= m - 1 {
		s := &e.slots[bits.TrailingZeros64(m)]
		e.scratch = append(e.scratch, s.buf[:s.n]...)
		e.scratchSeq = append(e.scratchSeq, s.seq[:s.n]...)
		s.empty()
	}
	e.releaseEmptied(held)
	if bits.OnesCount64(held) > 1 {
		sort.Stable(seqMerge{e.scratch, e.scratchSeq})
	}
	e.tally(e.scratch)
	e.mu.Lock()
	e.applyLocked(e.scratch)
	e.mu.Unlock()
}

// Flush drains every occupied slot into the sinks (ordering guarantee
// 2). When no slot holds records the call is one uncontended lock and
// one load. flushMu serializes sweeps, so a Flush returning cheaply has
// still waited out any in-flight sweep — without it a second Flush could
// observe bits the first had just cleared and return while the first was
// mid-apply, with its records not yet at the sinks. A Record racing with
// the sweep is either stamped before the sweep's cut and drained by it,
// or leaves its slot's bit set for the next Flush.
func (e *Engine) Flush() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if e.occupied.Load() == 0 {
		return
	}
	e.sweep()
}

// Locked runs fn while holding the engine's sink lock, ordering fn
// against concurrent batch applies (ordering guarantee 4). Front ends use
// it for everything that reads or mutates sink state: diagnostics, SMT
// registration, table swaps. fn must not call Flush, Record, Counts, or
// Locked.
func (e *Engine) Locked(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}

// Reset discards all buffered accesses without applying them, zeroes the
// kind counters, and re-enables recording. Sink state, lookup hints
// included, is the sinks' own: a front end that swaps its table does so
// through TableSink.SetTable.
func (e *Engine) Reset() {
	// Serialize against sweeps so a concurrent Flush cannot interleave
	// drained and discarded slots. Only the locked slots' bits clear: a
	// Record racing the reset past its cut lands in a slot it did not
	// lock, and that slot's bit must survive.
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	held := e.lockOccupied()
	for m := held; m != 0; m &= m - 1 {
		e.slots[bits.TrailingZeros64(m)].empty()
	}
	e.releaseEmptied(held)
	e.reads.Store(0)
	e.writes.Store(0)
	e.readWrites.Store(0)
	e.disabled.Store(false)
}

// Counts flushes pending buffers and returns the accesses recorded so far
// by kind. The flush is what makes the tally exact — the counters are
// derived from the drained records at drain time — so Counts must not be
// called from inside Locked (use a Flush-then-Locked sequence and read
// the counters before taking the lock).
func (e *Engine) Counts() Counts {
	e.Flush()
	return Counts{
		Reads:      e.reads.Load(),
		Writes:     e.writes.Load(),
		ReadWrites: e.readWrites.Load(),
	}
}

// Buffer is a single-owner access buffer draining into the same engine:
// the lock-free hot path used by goroutine-scoped recording (xplrt's
// DeviceScope). Record and Flush must be called by one goroutine at a
// time; the engine-side apply is synchronized like any slot sweep. A
// Buffer needs no order stamps: its records apply as one batch in
// append order, and its interleaving with the shared Record stream is
// ordered at flush boundaries only (guarantee 3). It coalesces scalars
// with the slot path's rule (extendRun), with no stamp check: nothing
// else appends to it.
type Buffer struct {
	e   *Engine
	buf []shadow.Access
	// next is where an access must start to continue the last record:
	// the end of its last element.
	next memsim.Addr
}

// NewBuffer returns an empty buffer owned by the caller.
func (e *Engine) NewBuffer() *Buffer { return &Buffer{e: e} }

// Record appends one access with no locking, draining if the buffer
// filled. An access that contiguously continues the previous record
// grows it instead (extendRun).
func (b *Buffer) Record(dev machine.Device, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	if b.e.disabled.Load() {
		return
	}
	if n := len(b.buf); addr == b.next && n > 0 && extendRun(&b.buf[n-1], dev, size, kind) {
		b.next += memsim.Addr(size)
		return
	}
	if cap(b.buf) == 0 {
		b.buf = make([]shadow.Access, 0, bufferCap)
	}
	n := len(b.buf)
	b.buf = b.buf[:n+1]
	setScalar(&b.buf[n], dev, addr, size, kind)
	b.next = addr + memsim.Addr(size)
	if n+1 >= bufferCap {
		b.Flush()
	}
}

// RecordRange appends one run-length-encoded strided sweep (see
// Engine.RecordRange for the encoding). The buffer is single-owner and
// applies as one in-order batch, so even multi-line runs stay buffered:
// program order within the buffer is preserved by construction.
func (b *Buffer) RecordRange(dev machine.Device, base memsim.Addr, count int, stride, size int64, kind memsim.AccessKind) {
	if b.e.disabled.Load() || count <= 0 || size <= 0 {
		return
	}
	if stride < 0 {
		base += memsim.Addr(int64(count-1) * stride)
		stride = -stride
	}
	if stride > maxRun {
		for k := 0; k < count; k++ {
			b.Record(dev, base+memsim.Addr(int64(k)*stride), size, kind)
		}
		return
	}
	for count > 0 {
		run := count
		if run > maxRun {
			run = maxRun
		}
		if cap(b.buf) == 0 {
			b.buf = make([]shadow.Access, 0, bufferCap)
		}
		b.buf = append(b.buf, shadow.Access{Dev: dev, Kind: kind, Addr: base, Size: clampSize(size), Count: int32(run), Stride: int32(stride)})
		b.next = base + memsim.Addr(int64(run-1)*stride+size)
		if len(b.buf) >= bufferCap {
			b.Flush()
		}
		count -= run
		base += memsim.Addr(int64(run) * stride)
	}
}

// Flush drains the buffer into the sinks. The shared slots drain first
// (ordering guarantee 3): accesses recorded through Engine.Record before
// this buffer's must reach the sinks before the buffer's batch, or
// per-word ordering would invert.
func (b *Buffer) Flush() {
	if len(b.buf) == 0 {
		return
	}
	b.e.Flush()
	b.e.tally(b.buf)
	b.e.mu.Lock()
	b.e.applyLocked(b.buf)
	b.e.mu.Unlock()
	b.buf = b.buf[:0]
}
