package record

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// newTableEngine builds an engine over a fresh table with one registered
// range [base, base+size).
func newTableEngine(t *testing.T, base memsim.Addr, size int64) (*Engine, *TableSink) {
	t.Helper()
	sink := NewTableSink(shadow.NewTable())
	if _, err := sink.Table().InsertRange(base, size, "a", memsim.Managed, "test"); err != nil {
		t.Fatal(err)
	}
	return NewEngine(sink), sink
}

func entryOf(t *testing.T, sink *TableSink, addr memsim.Addr) *shadow.Entry {
	t.Helper()
	e := sink.Table().Find(addr)
	if e == nil {
		t.Fatalf("no entry at %#x", addr)
	}
	return e
}

func TestRecordAndFlush(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	eng.Record(machine.GPU, 0x1000, 4, memsim.Read)
	// Nothing applied until a flush point.
	if b := entryOf(t, sink, 0x1000).Shadow[0]; b != 0 {
		t.Fatalf("shadow before flush = %08b", b)
	}
	eng.Flush()
	b := entryOf(t, sink, 0x1000).Shadow[0]
	if b&shadow.CPUWrote == 0 || b&shadow.ReadCG == 0 {
		t.Errorf("shadow after flush = %08b", b)
	}
	c := eng.Counts()
	if c.Writes != 1 || c.Reads != 1 || c.ReadWrites != 0 {
		t.Errorf("counts = %+v", c)
	}
}

func TestUntrackedCounted(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	eng.Record(machine.CPU, 0x9000, 4, memsim.Read)
	eng.Flush()
	if got := sink.Untracked(); got != 1 {
		t.Errorf("untracked = %d, want 1", got)
	}
}

func TestDisabledSkipsAccesses(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	eng.SetEnabled(false)
	if eng.Enabled() {
		t.Fatal("still enabled")
	}
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	buf := eng.NewBuffer()
	buf.Record(machine.CPU, 0x1000, 4, memsim.Write)
	buf.Flush()
	eng.Flush()
	if b := entryOf(t, sink, 0x1000).Shadow[0]; b != 0 {
		t.Errorf("disabled engine touched shadow memory: %08b", b)
	}
	if c := eng.Counts(); c != (Counts{}) {
		t.Errorf("disabled engine counted: %+v", c)
	}
}

// TestBufferDrainFlushesSlotsFirst checks ordering guarantee 3: a write
// recorded through the shared path before a buffered read of the same
// word must apply first, or the read's origin would be wrong.
func TestBufferDrainFlushesSlotsFirst(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write) // shared path
	buf := eng.NewBuffer()
	buf.Record(machine.GPU, 0x1000, 4, memsim.Read) // buffer path
	buf.Flush()
	b := entryOf(t, sink, 0x1000).Shadow[0]
	if b&shadow.ReadCG == 0 {
		t.Errorf("GPU read did not see the CPU write as origin: %08b", b)
	}
}

// TestSwapTableInvalidatesCursors is the regression test for the
// generation trick: replacing the table mid-stream (under Locked, with
// Invalidate) must prevent later batches from applying against a cached
// *shadow.Entry of the old table — for the merged-stream cursor and
// buffer cursors alike.
func TestSwapTableInvalidatesCursors(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	oldEntry := entryOf(t, sink, 0x1000)

	buf := eng.NewBuffer()
	// Fill both cursors' caches with the old table's entry.
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	buf.Record(machine.CPU, 0x1004, 4, memsim.Write)
	buf.Flush()
	eng.Flush()

	// Swap in a fresh table covering the same range.
	newTable := shadow.NewTable()
	if _, err := newTable.InsertRange(0x1000, 64, "a2", memsim.Managed, "test"); err != nil {
		t.Fatal(err)
	}
	eng.Locked(func() {
		sink.SetTable(newTable)
		eng.Invalidate()
	})
	oldShadow := append([]byte(nil), oldEntry.Shadow...)

	// Record through both paths again: everything must land in the new
	// table, nothing in the stale cached entry.
	eng.Record(machine.GPU, 0x1000, 4, memsim.Write)
	buf.Record(machine.GPU, 0x1004, 4, memsim.Write)
	buf.Flush()
	eng.Flush()

	for i, b := range oldEntry.Shadow {
		if b != oldShadow[i] {
			t.Errorf("old table mutated after swap: shadow[%d] %08b -> %08b", i, oldShadow[i], b)
		}
	}
	ne := newTable.Find(0x1000)
	if ne == nil || ne.Shadow[0]&shadow.GPUWrote == 0 || ne.Shadow[1]&shadow.GPUWrote == 0 {
		t.Errorf("accesses after swap missing from new table: %+v", ne)
	}
	if sink.Untracked() != 0 {
		t.Errorf("untracked = %d, want 0 (counter restarts on SetTable)", sink.Untracked())
	}
}

func TestResetDiscardsBufferedAccesses(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	eng.SetEnabled(false)
	eng.Reset()
	if !eng.Enabled() {
		t.Error("Reset did not re-enable")
	}
	eng.Flush()
	if b := entryOf(t, sink, 0x1000).Shadow[0]; b != 0 {
		t.Errorf("buffered access survived Reset: %08b", b)
	}
	if c := eng.Counts(); c != (Counts{}) {
		t.Errorf("counts survived Reset: %+v", c)
	}
}

// recordingSink captures applied batches, for sink-dispatch tests.
type recordingSink struct {
	accesses []shadow.Access
}

func (s *recordingSink) Apply(batch []shadow.Access, _ *Cursor) {
	s.accesses = append(s.accesses, batch...)
}

func TestAddSinkSeesOnlyLaterBatches(t *testing.T) {
	eng, _ := newTableEngine(t, 0x1000, 64)
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	rec := &recordingSink{}
	eng.AddSink(rec) // flushes the buffered write to the table sink only
	eng.Record(machine.GPU, 0x1000, 4, memsim.Read)
	eng.Flush()
	if len(rec.accesses) != 1 || rec.accesses[0].Dev != machine.GPU {
		t.Errorf("late sink saw %+v, want just the GPU read", rec.accesses)
	}
}

// TestSlotDrainOnFill checks that a filling slot drains without an
// explicit flush (a single-goroutine recorder keeps hitting one slot).
// It runs on one P so the recorder's slot hint cannot change mid-test:
// with more Ps a migration splits the records over two slots, neither
// fills, and correctly nothing drains.
func TestSlotDrainOnFill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, sink := newTableEngine(t, 0x1000, 64)
	for i := 0; i < slotCap; i++ {
		eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	}
	if b := entryOf(t, sink, 0x1000).Shadow[0]; b&shadow.CPUWrote == 0 {
		t.Error("full slot did not drain")
	}
}

// TestConcurrentRecordMatchesSequential drives the same per-word access
// sequences through 1 and 8 goroutines (each goroutine owning a disjoint
// word set, so per-word order is deterministic) and expects identical
// shadow state. Run with -race in CI.
func TestConcurrentRecordMatchesSequential(t *testing.T) {
	const words = 1 << 12
	run := func(workers int) []byte {
		sink := NewTableSink(shadow.NewTable())
		if _, err := sink.Table().InsertRange(0x10000, words*shadow.WordSize, "a", memsim.Managed, "test"); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(sink)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < words; i += workers {
					addr := memsim.Addr(0x10000 + i*shadow.WordSize)
					eng.Record(machine.CPU, addr, shadow.WordSize, memsim.Write)
					eng.Record(machine.GPU, addr, shadow.WordSize, memsim.ReadWrite)
					if i%3 == 0 {
						eng.Record(machine.CPU, addr, shadow.WordSize, memsim.Read)
					}
				}
			}(w)
		}
		wg.Wait()
		eng.Flush()
		e := sink.Table().Find(0x10000)
		return append([]byte(nil), e.Shadow...)
	}
	want, got := run(1), run(8)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("shadow[%d]: sequential %08b, parallel %08b", i, want[i], got[i])
		}
	}
}

// TestConcurrentFlushSafe exercises Record/Flush/Counts from concurrent
// goroutines; meaningful under -race.
func TestConcurrentFlushSafe(t *testing.T) {
	eng, _ := newTableEngine(t, 0x1000, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				eng.Record(machine.GPU, memsim.Addr(0x1000+(g*1000+i)%(1<<16-4)), 4, memsim.Read)
				if i%500 == 0 {
					eng.Flush()
					_ = eng.Counts()
				}
			}
		}(g)
	}
	wg.Wait()
	eng.Flush()
	if c := eng.Counts(); c.Reads != 8000 {
		t.Errorf("reads = %d, want 8000", c.Reads)
	}
}

// orderSink checks, per recording goroutine, that records reach the
// sinks in recording order across batches; the goroutine is the address's
// high 32 bits and its record index the low ones.
type orderSink struct {
	next  []memsim.Addr
	total int64
	err   error
}

func (s *orderSink) Apply(batch []shadow.Access, _ *Cursor) {
	for _, a := range batch {
		g, i := a.Addr>>32, a.Addr&(1<<32-1)
		if s.err == nil && i != s.next[g] {
			s.err = fmt.Errorf("goroutine %d: record %d applied, want %d", g, i, s.next[g])
		}
		s.next[g] = i + 1
	}
	s.total += int64(len(batch))
}

// TestSlotOverflowUnderContention pins the full-slot invariant: with far
// more recorders than Ps, goroutines keep finding a slot that another one
// just filled and released on its way to Flush. A recorder must never
// append to it: the 1025th append overruns the slot's buffer with a
// slice-bounds panic. The order sink also checks that each goroutine's
// records drain in the order it made them.
func TestSlotOverflowUnderContention(t *testing.T) {
	const (
		goroutines = 16
		each       = 200_000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sink := &orderSink{next: make([]memsim.Addr, goroutines)}
	eng := NewEngine(sink)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				eng.Record(machine.GPU, memsim.Addr(g)<<32|memsim.Addr(i), 4, memsim.Read)
			}
		}(g)
	}
	wg.Wait()
	c := eng.Counts()
	if sink.err != nil {
		t.Fatal(sink.err)
	}
	if want := int64(goroutines * each); sink.total != want || c.Reads != want {
		t.Errorf("applied %d records, counted %d reads; want %d", sink.total, c.Reads, want)
	}
}

// TestSlotHoppingMatchesSequential drives more recorders than Ps, each
// yielding between records so it changes slots mid-stream, while another
// goroutine flushes in a loop: every partial sweep must cut the stamp
// stream at a prefix. Each recorder owns its words. Per round it gives
// every word a write / read-by-the-other-device / write triple, then
// reads all its words as one multi-line range, which flushes at record
// time; the writing device alternates by round. Applying any two
// consecutive records of a recorder out of order changes a word's
// read-origin bits. Shadow bytes, kind counts and heat maps must equal a
// sequential replay of the same calls.
func TestSlotHoppingMatchesSequential(t *testing.T) {
	const (
		words  = 40 // per recorder: 160 bytes, so its range spans 3-4 lines
		rounds = 40
		base   = memsim.Addr(0x10000)
	)
	recorders := 2*runtime.GOMAXPROCS(0) + 1
	run := func(concurrent bool) (*TableSink, *HeatmapSink, Counts) {
		sink := NewTableSink(shadow.NewTable())
		if _, err := sink.Table().InsertRange(base, int64(recorders*words*shadow.WordSize), "a", memsim.Managed, "test"); err != nil {
			t.Fatal(err)
		}
		hm := NewHeatmapSink(sink.Table())
		eng := NewEngine(sink, hm)
		record := func(w int, yield bool) {
			first := base + memsim.Addr(w*words*shadow.WordSize)
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
						if yield {
							runtime.Gosched()
						}
					}
				}
				eng.RecordRange(b, first, words, shadow.WordSize, shadow.WordSize, memsim.Read)
			}
		}
		if !concurrent {
			for w := 0; w < recorders; w++ {
				record(w, false)
			}
			return sink, hm, eng.Counts()
		}
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
		for w := 0; w < recorders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				record(w, true)
			}(w)
		}
		wg.Wait()
		done.Store(true)
		<-flushed
		return sink, hm, eng.Counts()
	}
	refSink, refHM, refCounts := run(false)
	conSink, conHM, conCounts := run(true)

	ref, con := refSink.Table().Find(base).Shadow, conSink.Table().Find(base).Shadow
	for i := range ref {
		if ref[i] != con[i] {
			t.Fatalf("shadow[%d] (recorder %d): sequential %08b, concurrent %08b", i, i/words, ref[i], con[i])
		}
	}
	if refCounts != conCounts {
		t.Errorf("kind counts: sequential %+v, concurrent %+v", refCounts, conCounts)
	}
	rh, ch := refHM.Heats(), conHM.Heats()
	if len(rh) != 1 || len(ch) != 1 {
		t.Fatalf("heats: sequential %d, concurrent %d", len(rh), len(ch))
	}
	if rh[0].Totals != ch[0].Totals {
		t.Errorf("heat totals: sequential %v, concurrent %v", rh[0].Totals, ch[0].Totals)
	}
	for d := range rh[0].Counts {
		for w := range rh[0].Counts[d] {
			if rh[0].Counts[d][w] != ch[0].Counts[d][w] {
				t.Fatalf("heat dev %d word %d: sequential %d, concurrent %d", d, w, rh[0].Counts[d][w], ch[0].Counts[d][w])
			}
		}
	}
}
