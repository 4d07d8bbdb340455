package record_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
)

// elemSink counts applied records and the element accesses they cover.
type elemSink struct{ records, elems int64 }

func (s *elemSink) Apply(batch []shadow.Access, _ *record.Cursor) {
	for i := range batch {
		s.records++
		s.elems += batch[i].Elems()
	}
}

// hopResult is everything a slot-hopping run leaves in its sinks.
type hopResult struct {
	shadow  [][]byte
	counts  record.Counts
	heats   map[string]*record.Heat
	rows    map[string]pattern.Row
	applied elemSink
}

// runHopping registers one allocation of words words per recorder and
// runs record for every recorder, either one after another or
// concurrently — each recorder yielding after every call, so it changes
// slots mid-stream, against a goroutine that flushes in a loop. Every
// partial sweep must then cut the stamp stream at a prefix, and each
// recorder's records must apply in its order. Recorders own their
// allocations, so their per-allocation heat maps and pattern streams
// depend only on their own order.
func runHopping(t *testing.T, recorders, words int, concurrent bool, rec func(eng *record.Engine, first memsim.Addr, yield func())) hopResult {
	t.Helper()
	const base = memsim.Addr(0x10000)
	sink := record.NewTableSink(shadow.NewTable())
	firsts := make([]memsim.Addr, recorders)
	for w := range firsts {
		// A page apart, so no two recorders share an index page.
		firsts[w] = base + memsim.Addr(w<<12)
		if _, err := sink.Table().InsertRange(firsts[w], int64(words*shadow.WordSize), fmt.Sprintf("r%d", w), memsim.Managed, "test"); err != nil {
			t.Fatal(err)
		}
	}
	hm := record.NewHeatmapSink(sink.Table())
	ps := pattern.NewSink(sink.Table())
	var res hopResult
	eng := record.NewEngine(sink, hm, ps, &res.applied)
	if !concurrent {
		for _, first := range firsts {
			rec(eng, first, func() {})
		}
	} else {
		var done atomic.Bool
		flushed := make(chan struct{})
		go func() {
			defer close(flushed)
			for !done.Load() {
				eng.Flush()
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		for _, first := range firsts {
			wg.Add(1)
			go func(first memsim.Addr) {
				defer wg.Done()
				rec(eng, first, runtime.Gosched)
			}(first)
		}
		wg.Wait()
		done.Store(true)
		<-flushed
	}
	res.counts = eng.Counts()
	for _, e := range sink.Table().Entries() {
		res.shadow = append(res.shadow, append([]byte(nil), e.Shadow...))
	}
	res.heats = map[string]*record.Heat{}
	for _, h := range hm.Heats() {
		res.heats[h.Label()] = h
	}
	res.rows = map[string]pattern.Row{}
	for _, r := range ps.Rows() {
		res.rows[fmt.Sprintf("%s/%v", r.Alloc, r.Dev)] = r
	}
	return res
}

// compareHopping requires a concurrent run to leave exactly the
// sequential run's shadow bytes, kind counts, heat maps and pattern rows.
func compareHopping(t *testing.T, words int, ref, con hopResult) {
	t.Helper()
	for a := range ref.shadow {
		for i := range ref.shadow[a] {
			if ref.shadow[a][i] != con.shadow[a][i] {
				t.Fatalf("recorder %d word %d: sequential %08b, concurrent %08b", a, i, ref.shadow[a][i], con.shadow[a][i])
			}
		}
	}
	if ref.counts != con.counts {
		t.Errorf("kind counts: sequential %+v, concurrent %+v", ref.counts, con.counts)
	}
	if len(ref.heats) != len(con.heats) {
		t.Fatalf("heats: sequential %d, concurrent %d", len(ref.heats), len(con.heats))
	}
	for label, rh := range ref.heats {
		ch := con.heats[label]
		if ch == nil || rh.Totals != ch.Totals {
			t.Fatalf("%s heat totals: sequential %v, concurrent %v", label, rh.Totals, ch)
		}
		for d := range rh.Counts {
			for w := 0; w < words; w++ {
				if rh.Counts[d][w] != ch.Counts[d][w] {
					t.Fatalf("%s heat dev %d word %d: sequential %d, concurrent %d", label, d, w, rh.Counts[d][w], ch.Counts[d][w])
				}
			}
		}
	}
	if len(ref.rows) != len(con.rows) {
		t.Fatalf("pattern rows: sequential %d, concurrent %d", len(ref.rows), len(con.rows))
	}
	for k, r := range ref.rows {
		if con.rows[k] != r {
			t.Errorf("pattern row %s: sequential %+v, concurrent %+v", k, r, con.rows[k])
		}
	}
	if ref.applied.elems != con.applied.elems {
		t.Errorf("applied elements: sequential %d, concurrent %d", ref.applied.elems, con.applied.elems)
	}
}

// TestSlotHoppingMatchesSequential drives more recorders than Ps. Per
// round a recorder gives every word a write / read-by-the-other-device /
// write triple, then reads all its words as one multi-line range, which
// flushes at record time; the writing device alternates by round.
// Applying any two consecutive records of a recorder out of order
// changes a word's read-origin bits.
func TestSlotHoppingMatchesSequential(t *testing.T) {
	const (
		words  = 40 // per recorder: 160 bytes, so its range spans 3-4 lines
		rounds = 40
	)
	recorders := 2*runtime.GOMAXPROCS(0) + 1
	rec := func(eng *record.Engine, first memsim.Addr, yield func()) {
		for r := 0; r < rounds; r++ {
			a, b := machine.CPU, machine.GPU
			if r%2 == 1 {
				a, b = b, a
			}
			for k := 0; k < words; k++ {
				addr := first + memsim.Addr(k*shadow.WordSize)
				for _, op := range [...]struct {
					dev  machine.Device
					kind memsim.AccessKind
				}{{a, memsim.Write}, {b, memsim.Read}, {a, memsim.Write}} {
					eng.Record(op.dev, addr, shadow.WordSize, op.kind)
					yield()
				}
			}
			eng.RecordRange(b, first, words, shadow.WordSize, shadow.WordSize, memsim.Read)
		}
	}
	compareHopping(t, words, runHopping(t, recorders, words, false, rec), runHopping(t, recorders, words, true, rec))
}

// TestSlotHoppingContiguousMatchesSequential is the coalescing variant:
// per round a recorder sweeps its words three times, element by element
// — a write, a read by the other device and a read-modify-write — and
// the writing device alternates by round. Sequentially every sweep
// coalesces into runs; concurrently, a run grows only while no other
// recorder stamps in between, so the concurrent batches hold a mix of
// runs and scalars that must apply exactly like the sequential runs.
func TestSlotHoppingContiguousMatchesSequential(t *testing.T) {
	const (
		words  = 48
		rounds = 40
	)
	recorders := 2*runtime.GOMAXPROCS(0) + 1
	rec := func(eng *record.Engine, first memsim.Addr, yield func()) {
		for r := 0; r < rounds; r++ {
			a, b := machine.CPU, machine.GPU
			if r%2 == 1 {
				a, b = b, a
			}
			for _, op := range [...]struct {
				dev  machine.Device
				kind memsim.AccessKind
			}{{a, memsim.Write}, {b, memsim.Read}, {a, memsim.ReadWrite}} {
				for k := 0; k < words; k++ {
					eng.Record(op.dev, first+memsim.Addr(k*shadow.WordSize), shadow.WordSize, op.kind)
					yield()
				}
			}
		}
	}
	ref := runHopping(t, recorders, words, false, rec)
	if ref.applied.records >= ref.applied.elems {
		t.Fatalf("sequential run applied %d records for %d accesses: nothing coalesced", ref.applied.records, ref.applied.elems)
	}
	compareHopping(t, words, ref, runHopping(t, recorders, words, true, rec))
}
