package record

import (
	"fmt"
	"runtime"
	"sync"
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

// TestSwapTableInvalidatesCursors checks that replacing the table
// mid-stream (SetTable under Locked) keeps later batches from applying
// against the TableSink's lookup hint into the old table — for the
// merged Record stream and Buffer batches alike.
func TestSwapTableInvalidatesCursors(t *testing.T) {
	eng, sink := newTableEngine(t, 0x1000, 64)
	oldEntry := entryOf(t, sink, 0x1000)

	buf := eng.NewBuffer()
	// Leave the sink's lookup hint on the old table's entry.
	eng.Record(machine.CPU, 0x1000, 4, memsim.Write)
	buf.Record(machine.CPU, 0x1004, 4, memsim.Write)
	buf.Flush()
	eng.Flush()

	// Swap in a fresh table covering the same range.
	newTable := shadow.NewTable()
	if _, err := newTable.InsertRange(0x1000, 64, "a2", memsim.Managed, "test"); err != nil {
		t.Fatal(err)
	}
	eng.Locked(func() { sink.SetTable(newTable) })
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

// countingSink records the shape of every applied batch.
type countingSink struct {
	batches [][]shadow.Access
}

func (s *countingSink) Apply(batch []shadow.Access, _ *Cursor) {
	s.batches = append(s.batches, append([]shadow.Access(nil), batch...))
}

// TestRunStampRefusesInterleavedSlot pins the stamp check of slot-path
// coalescing. A GPU write of word 0 lands in the hinted slot; while that
// slot is held, a CPU read of word 1 lands in the next one and takes a
// newer stamp; then a GPU write of word 1 contiguously continues the
// first slot's record. Growing that record would order the write before
// the read, and the read would see a GPU origin (ReadGC). The write must
// take a stamp of its own instead, after the read's.
func TestRunStampRefusesInterleavedSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, sink := newTableEngine(t, 0x1000, 64)
	eng.Record(machine.GPU, 0x1000, 4, memsim.Write)
	hinted := &eng.slots[procHint()%NumSlots]
	if !hinted.tryLock() {
		t.Fatal("hinted slot is held")
	}
	eng.Record(machine.CPU, 0x1004, 4, memsim.Read)
	hinted.unlock()
	eng.Record(machine.GPU, 0x1004, 4, memsim.Write)
	eng.Flush()
	want := shadow.ReadCC | shadow.GPUWrote | shadow.LastWriterGPU
	if got := entryOf(t, sink, 0x1000).Shadow[1]; got != want {
		t.Errorf("word 1 = %08b, want %08b (ReadCC|GPUWrote|LastWriterGPU)", got, want)
	}
}

// TestSlotCoalescesOnFillBoundary checks that a contiguous sweep through
// the slot path reaches the sinks as one run record per sweep, and that
// the sweeps fire where one record per call would have filled the slot:
// every slotCap calls.
func TestSlotCoalescesOnFillBoundary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const base = memsim.Addr(0x10000)
	sink := &countingSink{}
	eng := NewEngine(sink)
	for i := 0; i < 3*slotCap; i++ {
		eng.Record(machine.CPU, base+memsim.Addr(4*i), 4, memsim.Write)
	}
	if len(sink.batches) != 3 {
		t.Fatalf("%d batches before any flush, want 3", len(sink.batches))
	}
	for i, b := range sink.batches {
		want := shadow.Access{Dev: machine.CPU, Kind: memsim.Write, Size: 4, Addr: base + memsim.Addr(4*i*slotCap), Count: slotCap, Stride: 4}
		if len(b) != 1 || b[0] != want {
			t.Errorf("batch %d = %+v, want [%+v]", i, b, want)
		}
	}
	if c := eng.Counts(); c != (Counts{Writes: 3 * slotCap}) {
		t.Errorf("counts = %+v, want %d writes", c, 3*slotCap)
	}
}

// TestExtendRunShapes pins the shared coalescing rule's shape checks:
// only a gapless record with the same device, kind and size grows.
func TestExtendRunShapes(t *testing.T) {
	scalar := shadow.Access{Dev: machine.GPU, Kind: memsim.Read, Size: 8, Addr: 0x100}
	run := func(count, stride int32) shadow.Access {
		return shadow.Access{Dev: machine.GPU, Kind: memsim.Read, Size: 8, Addr: 0x100, Count: count, Stride: stride}
	}
	for _, c := range []struct {
		name string
		p    shadow.Access
		dev  machine.Device
		size int64
		kind memsim.AccessKind
		want shadow.Access // p after the call; p itself when refused
	}{
		{"scalar grows", scalar, machine.GPU, 8, memsim.Read, run(2, 8)},
		{"one-element run grows", run(1, 8), machine.GPU, 8, memsim.Read, run(2, 8)},
		{"run grows", run(3, 8), machine.GPU, 8, memsim.Read, run(4, 8)},
		{"other device", scalar, machine.CPU, 8, memsim.Read, scalar},
		{"other kind", scalar, machine.GPU, 8, memsim.Write, scalar},
		{"other size", scalar, machine.GPU, 4, memsim.Read, scalar},
		{"gapped run", run(3, 16), machine.GPU, 8, memsim.Read, run(3, 16)},
		{"overlapping run", run(3, 4), machine.GPU, 8, memsim.Read, run(3, 4)},
		{"full run", run(maxRun, 8), machine.GPU, 8, memsim.Read, run(maxRun, 8)},
		{"zero size", shadow.Access{Dev: machine.GPU, Kind: memsim.Read, Addr: 0x101}, machine.GPU, 0, memsim.Read,
			shadow.Access{Dev: machine.GPU, Kind: memsim.Read, Addr: 0x101}},
	} {
		p := c.p
		grew := extendRun(&p, c.dev, c.size, c.kind)
		if p != c.want || grew != (c.want != c.p) {
			t.Errorf("%s: extendRun = %v, record %+v; want %v, %+v", c.name, grew, p, c.want != c.p, c.want)
		}
	}
}

// TestCoalescingNeedsContiguity drives both recording paths with
// accesses that repeat, skip or continue the previous element, and a
// scalar after a range, and checks the records they drain: only an
// access starting where the last record's last element ends grows it.
func TestCoalescingNeedsContiguity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type rec struct {
		addr  memsim.Addr
		count int // > 1: a range of count contiguous 4-byte elements
	}
	script := []rec{
		{0x1000, 1}, {0x1000, 1}, // the same element twice
		{0x1008, 1},              // a gap
		{0x100c, 1}, {0x1010, 1}, // contiguous
		{0x2000, 4}, {0x2010, 1}, // a scalar continuing a range
		{0x2018, 1}, // a gap after a range
	}
	want := []shadow.Access{
		{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x1000},
		{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x1000},
		{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x1008, Count: 3, Stride: 4},
		{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x2000, Count: 5, Stride: 4},
		{Dev: machine.GPU, Kind: memsim.Write, Size: 4, Addr: 0x2018},
	}
	type recorder interface {
		Record(machine.Device, memsim.Addr, int64, memsim.AccessKind)
		RecordRange(machine.Device, memsim.Addr, int, int64, int64, memsim.AccessKind)
		Flush()
	}
	for name, mk := range map[string]func(*Engine) recorder{
		"slot":   func(e *Engine) recorder { return e },
		"buffer": func(e *Engine) recorder { return e.NewBuffer() },
	} {
		sink := &countingSink{}
		r := mk(NewEngine(sink))
		for _, a := range script {
			if a.count > 1 {
				// Within one 64-byte line, so the slot path keeps it buffered.
				r.RecordRange(machine.GPU, a.addr, a.count, 4, 4, memsim.Write)
			} else {
				r.Record(machine.GPU, a.addr, 4, memsim.Write)
			}
		}
		r.Flush()
		var got []shadow.Access
		for _, b := range sink.batches {
			got = append(got, b...)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s path drained\n%+v\nwant\n%+v", name, got, want)
		}
	}
}

// TestOneElementRunEndsAtItsElement pins where a one-element run with a
// wide stride ends for coalescing: at its element, not a stride later.
// A scalar one stride past the element is a record of its own; a scalar
// right after it grows the run. The Buffer makes such a run from a
// one-element RecordRange; the slot path only from the tail of a range
// split at maxRun elements.
func TestOneElementRunEndsAtItsElement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const base = memsim.Addr(0x1000)
	w := func(addr memsim.Addr, count, stride int32) shadow.Access {
		return shadow.Access{Dev: machine.GPU, Kind: memsim.Write, Size: 8, Addr: addr, Count: count, Stride: stride}
	}
	for _, c := range []struct {
		next memsim.Addr
		want []shadow.Access
	}{
		{base + 16, []shadow.Access{w(base, 1, 16), w(base+16, 0, 0)}},
		{base + 8, []shadow.Access{w(base, 2, 8)}},
	} {
		sink := &countingSink{}
		b := NewEngine(sink).NewBuffer()
		b.RecordRange(machine.GPU, base, 1, 16, 8, memsim.Write)
		b.Record(machine.GPU, c.next, 8, memsim.Write)
		b.Flush()
		if len(sink.batches) != 1 || fmt.Sprint(sink.batches[0]) != fmt.Sprint(c.want) {
			t.Errorf("buffer, scalar at %#x: drained %+v, want [%+v]", c.next, sink.batches, c.want)
		}
	}

	sink := &countingSink{}
	eng := NewEngine(sink)
	eng.RecordRange(machine.GPU, base, maxRun+1, 16, 8, memsim.Write)
	tail := base + memsim.Addr(int64(maxRun)*16)
	eng.Record(machine.GPU, tail+16, 8, memsim.Write)
	eng.Flush()
	want := [][]shadow.Access{
		{w(base, maxRun, 16)}, // multi-line: drains at record time
		{w(tail, 1, 16), w(tail+16, 0, 0)},
	}
	if fmt.Sprint(sink.batches) != fmt.Sprint(want) {
		t.Errorf("slot path drained %+v, want %+v", sink.batches, want)
	}
}
