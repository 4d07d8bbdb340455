// Cross-front-end equivalence: one random access stream, fed through
// (1) direct per-access shadow.Table.Record calls (the unbatched
// reference), (2) trace.Tracer (the simulated-runtime front end, one
// single-owner slot), (3) xplrt's scoped-buffer path (the plain-Go front
// end), and (4) the engine's shared slots (Engine.Record into a
// TableSink, the path of scope-less xplrt). All four must produce
// byte-identical shadow state and identical untracked counts — the
// property that lets both front ends share one recording engine.
package record_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xplacer/internal/detect"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/trace"
	"xplacer/xplrt"
)

type step struct {
	alloc int // -1: untracked address
	elem  int
	dev   machine.Device
	kind  memsim.AccessKind
}

func TestCrossFrontEndEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260805} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testEquivalence(t, seed)
		})
	}
}

func testEquivalence(t *testing.T, seed int64) {
	const (
		numAllocs = 5
		numSteps  = 6000
		elemSize  = 8 // int64 elements: every access spans two shadow words
	)
	rng := rand.New(rand.NewSource(seed))
	elems := make([]int, numAllocs)
	for i := range elems {
		elems[i] = 16 + rng.Intn(500)
	}
	steps := make([]step, numSteps)
	for i := range steps {
		s := step{
			alloc: rng.Intn(numAllocs+1) - 1,
			dev:   machine.Device(rng.Intn(int(machine.NumDevices))),
			kind:  memsim.AccessKind(rng.Intn(3)),
		}
		if s.alloc >= 0 {
			s.elem = rng.Intn(elems[s.alloc])
		}
		steps[i] = s
	}

	// (1) Reference: a bare table, one Record (Find + shadow update) per
	// access — no batching, no cache. (4) The engine's shared slots:
	// Engine.Record into a TableSink over a table of the same entries.
	refTable, slotSink := shadow.NewTable(), record.NewTableSink(shadow.NewTable())
	bases := make([]memsim.Addr, numAllocs)
	for i := range bases {
		bases[i] = memsim.Addr(0x100000 * (i + 1))
		for _, tb := range []*shadow.Table{refTable, slotSink.Table()} {
			if _, err := tb.InsertRange(bases[i], int64(elems[i])*elemSize, fmt.Sprintf("a%d", i), memsim.Managed, "test"); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := record.NewEngine(slotSink)
	var refUntracked int64
	for _, s := range steps {
		addr := memsim.Addr(0x50) // in no registered range
		if s.alloc >= 0 {
			addr = bases[s.alloc] + memsim.Addr(s.elem*elemSize)
		}
		if !refTable.Record(s.dev, addr, elemSize, s.kind) {
			refUntracked++
		}
		eng.Record(s.dev, addr, elemSize, s.kind)
	}
	eng.Flush()

	// (2) trace.Tracer over synthetic allocations at the same addresses.
	tr := trace.New()
	for i := range bases {
		tr.TraceAlloc(&memsim.Alloc{ID: i, Base: bases[i], Size: int64(elems[i]) * elemSize, Kind: memsim.Managed})
	}
	for _, s := range steps {
		addr := memsim.Addr(0x50)
		if s.alloc >= 0 {
			addr = bases[s.alloc] + memsim.Addr(s.elem*elemSize)
		}
		tr.TraceAccess(s.dev, nil, addr, elemSize, s.kind)
	}
	st := tr.Stats() // flushes

	// (3) xplrt over real heap slices, through per-goroutine device scopes
	// (the plain-Go front end's buffered path).
	xplrt.Reset()
	defer xplrt.Reset()
	slices := make([][]int64, numAllocs)
	for i := range slices {
		slices[i] = xplrt.Slice[int64](elems[i], fmt.Sprintf("a%d", i))
	}
	junk := new(int64) // never registered: the untracked target
	for _, s := range steps {
		p := junk
		if s.alloc >= 0 {
			p = &slices[s.alloc][s.elem]
		}
		// One scope per step: the scope flushes when OnDevice returns, so
		// the global access order (which the read-origin bits depend on)
		// matches the other front ends.
		xplrt.OnDevice(s.dev, func(sc *xplrt.DeviceScope) {
			switch s.kind {
			case memsim.Read:
				_ = *xplrt.ScopeR(sc, p)
			case memsim.Write:
				*xplrt.ScopeW(sc, p) = 1
			default:
				*xplrt.ScopeRW(sc, p)++
			}
		})
	}
	xplrtUntracked := xplrt.Untracked() // flushes

	// Shadow state must be byte-identical across all four.
	traceEntries := tr.Table().Entries() // base order == bases order
	if len(traceEntries) != numAllocs {
		t.Fatalf("trace entries = %d", len(traceEntries))
	}
	for i := range bases {
		ref := refTable.Find(bases[i]).Shadow
		if got := traceEntries[i].Shadow; !bytesEqual(ref, got) {
			t.Errorf("alloc %d: trace shadow differs from reference at word %d", i, firstDiff(ref, got))
		}
		if got := xplrt.ShadowOf(slices[i]); !bytesEqual(ref, got) {
			t.Errorf("alloc %d: xplrt shadow differs from reference at word %d", i, firstDiff(ref, got))
		}
		if got := slotSink.Table().Find(bases[i]).Shadow; !bytesEqual(ref, got) {
			t.Errorf("alloc %d: slot-path shadow differs from reference at word %d", i, firstDiff(ref, got))
		}
	}

	// Untracked counts must agree.
	if st.Untracked != refUntracked || xplrtUntracked != refUntracked || slotSink.Untracked() != refUntracked {
		t.Errorf("untracked: reference %d, trace %d, xplrt %d, slots %d", refUntracked, st.Untracked, xplrtUntracked, slotSink.Untracked())
	}
	if refUntracked == 0 {
		t.Error("stream exercised no untracked accesses; weaken the generator check")
	}
}

// rangeOp is one recorded operation: a scalar access (count == 1 recorded
// via Record) or a strided range (recorded via RecordRange on one engine
// and exploded into ascending per-element Records on the other).
type rangeOp struct {
	alloc  int // -1: untracked base
	elem   int
	count  int
	stride int64 // bytes; may be negative (descending) or smaller than size
	size   int64
	skew   int64 // byte offset off the element grid (unaligned accesses)
	dev    machine.Device
	kind   memsim.AccessKind
	scalar bool // use Record even when count == 1 was rolled
}

// TestRangeRecordEquivalence feeds one random stream of interleaved
// scalar and range accesses through two engines — one recording ranges
// with RecordRange, one exploding every range into per-element Record
// calls — and requires byte-identical shadow state, identical kind and
// untracked counts, identical heat maps, and identical findings. This is
// the contract that makes the range fast path a pure optimization.
// Allocations a2 and a3 are adjacent, so runs near a2's end cross into a3
// through a 4 KiB index page the two share; halfway through, a1 is freed
// right after an access left the sinks' lookup hints on it, and the next
// operation sweeps it.
//
// Two regimes are checked. "buffered" keeps the engines' normal shard
// buffering and uses element shapes that never straddle a 64-byte shard
// line — the regime where the engine guarantees per-word recording order,
// so the final state must match exactly. "flushed" adds skewed (unaligned)
// and word-overlapping sweeps, which straddle shard lines; there even the
// scalar engine's per-word order depends on relative shard drain times, so
// the stream is flushed after every operation to pin both engines to
// program order and isolate what is being tested: the run-length-encoded
// application itself (splitting, clamping, untracked accounting) is exact.
func TestRangeRecordEquivalence(t *testing.T) {
	for _, seed := range []int64{2, 77, 20260805} {
		for _, mode := range []string{"buffered", "flushed"} {
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				testRangeEquivalence(t, seed, mode == "flushed")
			})
		}
	}
}

func testRangeEquivalence(t *testing.T, seed int64, flushEachOp bool) {
	const (
		numAllocs = 4
		numOps    = 3000
		elemSize  = 8
	)
	rng := rand.New(rand.NewSource(seed))
	elems := make([]int, numAllocs)
	for i := range elems {
		elems[i] = 64 + rng.Intn(700)
	}
	strides := []int64{elemSize, 2 * elemSize, 3 * elemSize, -elemSize, -2 * elemSize}
	if flushEachOp {
		strides = append(strides, elemSize/2) // word-overlapping elements
	}
	ops := make([]rangeOp, numOps)
	for i := range ops {
		op := rangeOp{
			alloc:  rng.Intn(numAllocs+1) - 1,
			count:  1 + rng.Intn(64),
			stride: strides[rng.Intn(len(strides))],
			size:   elemSize,
			dev:    machine.Device(rng.Intn(int(machine.NumDevices))),
			kind:   memsim.AccessKind(rng.Intn(3)),
			scalar: rng.Intn(4) == 0,
		}
		if flushEachOp && rng.Intn(8) == 0 {
			op.skew = int64(1 + rng.Intn(int(elemSize)-1)) // off the word grid
		}
		if op.alloc >= 0 {
			// Start anywhere, including near the end so long runs spill past
			// the allocation into untracked territory.
			op.elem = rng.Intn(elems[op.alloc])
		}
		ops[i] = op
	}
	// The sweep of the freed a1 (see build).
	ops[numOps/2] = rangeOp{alloc: 1, count: 8, stride: elemSize, size: elemSize, dev: machine.GPU, kind: memsim.Read}

	build := func(useRange bool) (*shadow.Table, *record.Engine, *record.TableSink, *record.HeatmapSink) {
		table := shadow.NewTable()
		sink := record.NewTableSink(table)
		eng := record.NewEngine(sink)
		hm := record.NewHeatmapSink(table)
		eng.AddSink(hm)
		bases := make([]memsim.Addr, numAllocs)
		for i := range bases {
			bases[i] = memsim.Addr(0x200000 * (i + 1))
			if i == 3 {
				bases[i] = bases[2] + memsim.Addr(elems[2]*elemSize)
			}
			if _, err := table.InsertRange(bases[i], int64(elems[i])*elemSize, fmt.Sprintf("a%d", i), memsim.Managed, "test"); err != nil {
				t.Fatal(err)
			}
		}
		for i, op := range ops {
			if i == numOps/2 {
				// Free a1 as trace.Tracer.TraceFree does — flush, then mark
				// under the lock — with the hints left on its entry.
				eng.Record(machine.CPU, bases[1], elemSize, memsim.Write)
				eng.Flush()
				eng.Locked(func() { table.Find(bases[1]).Freed = true })
			}
			base := memsim.Addr(0x50) + memsim.Addr(op.skew)
			if op.alloc >= 0 {
				base = bases[op.alloc] + memsim.Addr(int64(op.elem)*elemSize+op.skew)
			}
			switch {
			case op.scalar || op.count == 1:
				eng.Record(op.dev, base, op.size, op.kind)
			case useRange:
				eng.RecordRange(op.dev, base, op.count, op.stride, op.size, op.kind)
			default:
				// Per-element reference: the same normalization RecordRange
				// applies — a descending sweep records its words ascending.
				b, s := base, op.stride
				if s < 0 {
					b += memsim.Addr(int64(op.count-1) * s)
					s = -s
				}
				for k := 0; k < op.count; k++ {
					eng.Record(op.dev, b+memsim.Addr(int64(k)*s), op.size, op.kind)
				}
			}
			if flushEachOp {
				eng.Flush()
			}
		}
		eng.Flush()
		return table, eng, sink, hm
	}

	refTable, refEng, refSink, refHM := build(false)
	rngTable, rngEng, rngSink, rngHM := build(true)

	refEntries, rngEntries := refTable.Entries(), rngTable.Entries()
	if len(refEntries) != len(rngEntries) {
		t.Fatalf("entry counts differ: %d vs %d", len(refEntries), len(rngEntries))
	}
	for i := range refEntries {
		if !bytesEqual(refEntries[i].Shadow, rngEntries[i].Shadow) {
			t.Errorf("alloc %d: range shadow differs from per-element reference at word %d",
				i, firstDiff(refEntries[i].Shadow, rngEntries[i].Shadow))
		}
	}

	if rc, gc := refEng.Counts(), rngEng.Counts(); rc != gc {
		t.Errorf("kind counts differ: reference %+v, range %+v", rc, gc)
	}
	if ru, gu := refSink.Untracked(), rngSink.Untracked(); ru != gu {
		t.Errorf("untracked differs: reference %d, range %d", ru, gu)
	} else if ru == 0 {
		t.Error("stream exercised no untracked accesses; weaken the generator check")
	}

	// Heat maps: identical per-word counts and totals on every device.
	refHeats, rngHeats := refHM.Heats(), rngHM.Heats()
	if len(refHeats) != len(rngHeats) {
		t.Fatalf("heat counts differ: %d vs %d", len(refHeats), len(rngHeats))
	}
	for i := range refHeats {
		rh, gh := refHeats[i], rngHeats[i]
		if rh.Base != gh.Base || rh.Words != gh.Words || rh.Totals != gh.Totals {
			t.Errorf("heat %d header differs: ref{%x %d %v} vs range{%x %d %v}",
				i, rh.Base, rh.Words, rh.Totals, gh.Base, gh.Words, gh.Totals)
			continue
		}
		for d := range rh.Counts {
			for w := range rh.Counts[d] {
				if rh.Counts[d][w] != gh.Counts[d][w] {
					t.Errorf("heat %d dev %d word %d: count %d vs %d", i, d, w, rh.Counts[d][w], gh.Counts[d][w])
					break
				}
			}
		}
	}

	// Findings: the detectors must see the same picture.
	refFind := detect.Scan(refEntries, detect.DefaultOptions())
	rngFind := detect.Scan(rngEntries, detect.DefaultOptions())
	if len(refFind) != len(rngFind) {
		t.Fatalf("finding counts differ: %d vs %d", len(refFind), len(rngFind))
	}
	for i := range refFind {
		if refFind[i].String() != rngFind[i].String() {
			t.Errorf("finding %d differs:\n  ref:   %s\n  range: %s", i, refFind[i], rngFind[i])
		}
	}
}

// fuzzOp is one operation of a worker's precomputed script: a scalar
// access (count == 1), a strided range, or a flush barrier.
type fuzzOp struct {
	elem      int
	count     int
	stride    int64
	dev       machine.Device
	kind      memsim.AccessKind
	untracked bool
	flush     bool // call Engine.Flush after the access
}

// TestConcurrentInterleavedEquivalence races several goroutines, each
// interleaving Record, RecordRange, and Flush calls against one shared
// engine, and requires the result — shadow bytes, kind counts, untracked
// tally, heat maps, and pattern classifications — to be identical to a
// sequential replay that explodes every range into per-element scalar
// records. Workers touch disjoint allocations, so the engine's per-word
// ordering guarantee (each goroutine's accesses apply in its program
// order) pins the expected state exactly; the test is the concurrency
// half of the range-equivalence contract above.
func TestConcurrentInterleavedEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 99, 20260808} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testConcurrentInterleaved(t, seed)
		})
	}
}

func testConcurrentInterleaved(t *testing.T, seed int64) {
	const (
		workers  = 8
		opsEach  = 2500
		elemSize = 8
	)
	rng := rand.New(rand.NewSource(seed))
	elems := make([]int, workers)
	scripts := make([][]fuzzOp, workers)
	// Stride menu mixes ascending, descending, and word-overlapping
	// (stride < size) sweeps; the engine's global sequence stamps keep even
	// overlapping words in one worker's program order.
	strides := []int64{elemSize, 2 * elemSize, 3 * elemSize, -elemSize, elemSize / 2}
	for w := range scripts {
		elems[w] = 64 + rng.Intn(700)
		ops := make([]fuzzOp, opsEach)
		for i := range ops {
			op := fuzzOp{
				count:     1 + rng.Intn(32),
				stride:    strides[rng.Intn(len(strides))],
				dev:       machine.Device(rng.Intn(int(machine.NumDevices))),
				kind:      memsim.AccessKind(rng.Intn(3)),
				untracked: rng.Intn(16) == 0,
				flush:     rng.Intn(64) == 0,
			}
			// Start anywhere, including near the end so long runs spill into
			// untracked territory past the allocation.
			op.elem = rng.Intn(elems[w])
			ops[i] = op
		}
		scripts[w] = ops
	}

	// Each worker owns one allocation (and one untracked address), so no
	// word is shared across goroutines and the final state is deterministic.
	bases := make([]memsim.Addr, workers)
	for w := range bases {
		bases[w] = memsim.Addr(0x100000 * (w + 1))
	}
	opAddr := func(w int, op fuzzOp) memsim.Addr {
		if op.untracked {
			return memsim.Addr(0x100 + w*64)
		}
		return bases[w] + memsim.Addr(int64(op.elem)*elemSize)
	}

	build := func(concurrent bool) (*shadow.Table, *record.Engine, *record.TableSink, *record.HeatmapSink, *pattern.Sink) {
		table := shadow.NewTable()
		sink := record.NewTableSink(table)
		eng := record.NewEngine(sink)
		hm := record.NewHeatmapSink(table)
		ps := pattern.NewSink(table)
		eng.AddSink(hm)
		eng.AddSink(ps)
		for w := range bases {
			if _, err := table.InsertRange(bases[w], int64(elems[w])*elemSize, fmt.Sprintf("a%d", w), memsim.Managed, "test"); err != nil {
				t.Fatal(err)
			}
		}
		runWorker := func(w int) {
			for _, op := range scripts[w] {
				addr := opAddr(w, op)
				switch {
				case op.count == 1:
					eng.Record(op.dev, addr, elemSize, op.kind)
				case concurrent:
					eng.RecordRange(op.dev, addr, op.count, op.stride, elemSize, op.kind)
				default:
					// Scalar explosion with RecordRange's normalization: a
					// descending sweep records its elements ascending.
					b, s := addr, op.stride
					if s < 0 {
						b += memsim.Addr(int64(op.count-1) * s)
						s = -s
					}
					for k := 0; k < op.count; k++ {
						eng.Record(op.dev, b+memsim.Addr(int64(k)*s), elemSize, op.kind)
					}
				}
				if op.flush {
					eng.Flush()
				}
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					runWorker(w)
				}(w)
			}
			wg.Wait()
		} else {
			for w := 0; w < workers; w++ {
				runWorker(w)
			}
		}
		eng.Flush()
		return table, eng, sink, hm, ps
	}

	refTable, refEng, refSink, refHM, refPS := build(false)
	conTable, conEng, conSink, conHM, conPS := build(true)

	refEntries, conEntries := refTable.Entries(), conTable.Entries()
	if len(refEntries) != workers || len(conEntries) != workers {
		t.Fatalf("entry counts: sequential %d, concurrent %d", len(refEntries), len(conEntries))
	}
	for i := range refEntries {
		if !bytesEqual(refEntries[i].Shadow, conEntries[i].Shadow) {
			t.Errorf("alloc %d: concurrent shadow differs from sequential explosion at word %d",
				i, firstDiff(refEntries[i].Shadow, conEntries[i].Shadow))
		}
	}

	if rc, gc := refEng.Counts(), conEng.Counts(); rc != gc {
		t.Errorf("kind counts differ: sequential %+v, concurrent %+v", rc, gc)
	}
	if ru, gu := refSink.Untracked(), conSink.Untracked(); ru != gu {
		t.Errorf("untracked differs: sequential %d, concurrent %d", ru, gu)
	} else if ru == 0 {
		t.Error("stream exercised no untracked accesses; weaken the generator check")
	}

	// Heat maps: per-word counts are sums, so they must match regardless of
	// interleaving.
	refHeats, conHeats := refHM.Heats(), conHM.Heats()
	if len(refHeats) != len(conHeats) {
		t.Fatalf("heat counts differ: %d vs %d", len(refHeats), len(conHeats))
	}
	for i := range refHeats {
		rh, gh := refHeats[i], conHeats[i]
		if rh.Base != gh.Base || rh.Words != gh.Words || rh.Totals != gh.Totals {
			t.Errorf("heat %d header differs: seq{%x %d %v} vs con{%x %d %v}",
				i, rh.Base, rh.Words, rh.Totals, gh.Base, gh.Words, gh.Totals)
			continue
		}
		for d := range rh.Counts {
			for w := range rh.Counts[d] {
				if rh.Counts[d][w] != gh.Counts[d][w] {
					t.Errorf("heat %d dev %d word %d: count %d vs %d", i, d, w, rh.Counts[d][w], gh.Counts[d][w])
					break
				}
			}
		}
	}

	// Pattern classifications: each (span, alloc, device) stream is fed by
	// exactly one worker, so its delta structure — and therefore its class,
	// dominant stride, and sample count — is independent of the global
	// interleaving.
	type rowKey struct {
		span  int
		alloc string // label; InsertRange entries share AllocID -1
		dev   machine.Device
	}
	rowMap := func(rows []pattern.Row) map[rowKey]pattern.Result {
		m := make(map[rowKey]pattern.Result, len(rows))
		for _, r := range rows {
			k := rowKey{span: r.SpanSeq, alloc: r.Alloc, dev: r.Dev}
			if _, dup := m[k]; dup {
				t.Fatalf("duplicate pattern stream key %+v", k)
			}
			m[k] = r.Result
		}
		return m
	}
	refRows, conRows := rowMap(refPS.Rows()), rowMap(conPS.Rows())
	if len(refRows) == 0 {
		t.Fatal("no pattern streams classified")
	}
	if len(refRows) != len(conRows) {
		t.Fatalf("pattern stream counts differ: %d vs %d", len(refRows), len(conRows))
	}
	for k, rv := range refRows {
		gv, ok := conRows[k]
		if !ok {
			t.Errorf("pattern stream %+v missing from concurrent run", k)
			continue
		}
		if rv != gv {
			t.Errorf("pattern stream %+v differs: sequential %+v, concurrent %+v", k, rv, gv)
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
