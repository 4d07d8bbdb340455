package shadow

import (
	"testing"
	"testing/quick"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

func TestUpdateWriteBits(t *testing.T) {
	b := Update(0, machine.CPU, memsim.Write)
	if b&CPUWrote == 0 || b&LastWriterGPU != 0 {
		t.Errorf("CPU write -> %08b", b)
	}
	b = Update(b, machine.GPU, memsim.Write)
	if b&GPUWrote == 0 || b&LastWriterGPU == 0 || b&CPUWrote == 0 {
		t.Errorf("GPU write after CPU write -> %08b", b)
	}
	b = Update(b, machine.CPU, memsim.Write)
	if b&LastWriterGPU != 0 {
		t.Errorf("CPU write should clear last-writer-GPU -> %08b", b)
	}
}

func TestUpdateReadOriginCategories(t *testing.T) {
	cases := []struct {
		name   string
		prep   byte // starting shadow
		reader machine.Device
		want   byte
	}{
		{"CPU reads CPU origin", CPUWrote, machine.CPU, ReadCC},
		{"GPU reads CPU origin", CPUWrote, machine.GPU, ReadCG},
		{"CPU reads GPU origin", GPUWrote | LastWriterGPU, machine.CPU, ReadGC},
		{"GPU reads GPU origin", GPUWrote | LastWriterGPU, machine.GPU, ReadGG},
		{"CPU reads never-written word (defaults to CPU origin)", 0, machine.CPU, ReadCC},
		{"GPU reads never-written word", 0, machine.GPU, ReadCG},
	}
	for _, c := range cases {
		got := Update(c.prep, c.reader, memsim.Read)
		if got&c.want == 0 {
			t.Errorf("%s: %08b lacks %08b", c.name, got, c.want)
		}
	}
}

func TestUpdateReadModifyWrite(t *testing.T) {
	// GPU RW of a CPU-written word: reads CPU origin, then becomes writer.
	b := Update(CPUWrote, machine.GPU, memsim.ReadWrite)
	if b&ReadCG == 0 {
		t.Errorf("RW did not record the read: %08b", b)
	}
	if b&GPUWrote == 0 || b&LastWriterGPU == 0 {
		t.Errorf("RW did not record the write: %08b", b)
	}
}

func TestUpdateMonotoneQuick(t *testing.T) {
	// Shadow accumulation is monotone: bits other than LastWriterGPU are
	// never cleared by further accesses.
	err := quick.Check(func(start byte, devBit, kindSel uint8) bool {
		dev := machine.Device(devBit % 2)
		kind := memsim.AccessKind(kindSel % 3)
		before := start &^ LastWriterGPU
		after := Update(start, dev, kind)
		return after&before == before
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func mkAlloc(t *testing.T, sp *memsim.Space, size int64, label string) *memsim.Alloc {
	t.Helper()
	a, err := sp.Alloc(size, memsim.Managed, label)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInsertAndFind(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 100, "a")
	e, err := tb.Insert(a, "cudaMallocManaged")
	if err != nil {
		t.Fatal(err)
	}
	if e.Words() != 25 {
		t.Errorf("Words = %d, want 25 for 100 bytes", e.Words())
	}
	if tb.Find(a.Base) != e || tb.Find(a.Base+99) != e {
		t.Error("Find missed the entry")
	}
	if tb.Find(a.Base+100) != nil {
		t.Error("Find matched beyond the entry")
	}
	if tb.Find(0) != nil {
		t.Error("Find(0) matched")
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 100, "a")
	if _, err := tb.Insert(a, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(a, "f"); err == nil {
		t.Error("duplicate insert succeeded")
	}
}

func TestFindBinaryMatchesLinear(t *testing.T) {
	// Above the cutoff the table switches to binary search; results must
	// be identical to a linear reference.
	sp := memsim.NewSpace(256)
	tb := NewTable()
	var allocs []*memsim.Alloc
	for i := 0; i < linearCutoff+20; i++ {
		a := mkAlloc(t, sp, int64(40+i%100), "x")
		allocs = append(allocs, a)
		if _, err := tb.Insert(a, "f"); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() <= linearCutoff {
		t.Fatal("table not past the linear cutoff")
	}
	linear := func(addr memsim.Addr) *Entry {
		for _, e := range tb.entries {
			if e.Contains(addr) && !e.Freed {
				return e
			}
		}
		return nil
	}
	for _, a := range allocs {
		for _, addr := range []memsim.Addr{a.Base, a.Base + 1, a.End() - 1, a.End()} {
			if tb.Find(addr) != linear(addr) {
				t.Fatalf("Find(%#x) diverges from linear reference", addr)
			}
		}
	}
}

func TestRecordSpansWords(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	e, _ := tb.Insert(a, "f")
	// An 8-byte access covers two shadow words.
	if !tb.Record(machine.GPU, a.Base+8, 8, memsim.Write) {
		t.Fatal("Record missed a traced address")
	}
	if e.Shadow[2]&GPUWrote == 0 || e.Shadow[3]&GPUWrote == 0 {
		t.Errorf("8-byte write marked %08b %08b", e.Shadow[2], e.Shadow[3])
	}
	if e.Shadow[1] != 0 || e.Shadow[4] != 0 {
		t.Error("write spilled into neighbouring words")
	}
}

func TestRecordUntrackedIgnored(t *testing.T) {
	tb := NewTable()
	if tb.Record(machine.CPU, 0x999, 4, memsim.Read) {
		t.Error("Record claimed success on an untracked address")
	}
}

func TestFreedEntriesDelayedDrop(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	e, _ := tb.Insert(a, "f")
	tb.Record(machine.GPU, a.Base, 4, memsim.Write)
	tb.MarkFreed(a.ID)
	if !e.Freed {
		t.Fatal("MarkFreed missed")
	}
	// Freed entries stop matching lookups (memory may be reused)...
	if tb.Find(a.Base) != nil {
		t.Error("freed entry still matches Find")
	}
	// ...but remain in the table for the next diagnostic.
	if tb.Len() != 1 {
		t.Error("freed entry dropped too early")
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Error("Reset did not drop freed entries")
	}
}

func TestResetPreservesLastWriter(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	e, _ := tb.Insert(a, "f")
	tb.Record(machine.GPU, a.Base, 4, memsim.Write)
	e.TransferredIn = 42
	tb.Reset()
	if e.Shadow[0] != LastWriterGPU {
		t.Errorf("Reset shadow = %08b, want only last-writer bit", e.Shadow[0])
	}
	if e.TransferredIn != 0 {
		t.Error("Reset did not clear transfer counters")
	}
	// A read after reset still knows the value's GPU origin (paper §III-D:
	// origin is the last write "regardless if it occurred ... earlier").
	tb.Record(machine.CPU, a.Base, 4, memsim.Read)
	if e.Shadow[0]&ReadGC == 0 {
		t.Errorf("post-reset read lost origin: %08b", e.Shadow[0])
	}
}

func TestLookupsCounter(t *testing.T) {
	tb := NewTable()
	before := tb.Lookups()
	tb.Find(1)
	tb.Find(2)
	if tb.Lookups() != before+2 {
		t.Error("lookup counter not advancing")
	}
}

func TestFindByIDIndex(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	b := mkAlloc(t, sp, 64, "b")
	ea, _ := tb.Insert(a, "f")
	eb, _ := tb.Insert(b, "f")
	if tb.FindByID(a.ID) != ea || tb.FindByID(b.ID) != eb {
		t.Error("FindByID missed an inserted entry")
	}
	if tb.FindByID(a.ID+b.ID+99) != nil {
		t.Error("FindByID matched an unknown id")
	}
	// Freed entries stay indexed (labels/transfer counters apply until the
	// diagnostic drops them), then leave the index with DropFreed.
	tb.MarkFreed(a.ID)
	if tb.FindByID(a.ID) != ea {
		t.Error("freed entry left the index before DropFreed")
	}
	tb.DropFreed()
	if tb.FindByID(a.ID) != nil {
		t.Error("dropped entry still indexed")
	}
	if tb.FindByID(b.ID) != eb {
		t.Error("DropFreed evicted a live entry")
	}
}

func TestTransfer(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	e, _ := tb.Insert(a, "f")
	// Host-to-device: the copied words read as CPU writes.
	if !tb.Transfer(a.ID, true, 8, 16) {
		t.Fatal("host-to-device transfer untracked")
	}
	for w, b := range e.Shadow {
		if in := w >= 2 && w < 6; (b&CPUWrote != 0) != in || b&(ReadCC|ReadGC) != 0 {
			t.Errorf("after H2D, word %d = %08b", w, b)
		}
	}
	// Device-to-host: the copied words read as CPU reads.
	if !tb.Transfer(a.ID, false, 0, 8) {
		t.Fatal("device-to-host transfer untracked")
	}
	if e.Shadow[0]&ReadCC == 0 || e.Shadow[0]&CPUWrote != 0 {
		t.Errorf("after D2H, word 0 = %08b", e.Shadow[0])
	}
	if e.TransferredIn != 16 || e.TransferredOut != 8 {
		t.Errorf("transferred in/out = %d/%d, want 16/8", e.TransferredIn, e.TransferredOut)
	}
	if tb.Transfer(a.ID+99, true, 0, 8) {
		t.Error("transfer to an unknown id counted as tracked")
	}
}

func TestFindAnyIncludesFreed(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	e, _ := tb.Insert(a, "f")
	tb.MarkFreed(a.ID)
	if tb.Find(a.Base) != nil {
		t.Error("Find matched a freed entry")
	}
	if tb.FindAny(a.Base) != e {
		t.Error("FindAny missed the freed-but-retained entry")
	}
}

func TestRecordAllMatchesSequentialRecord(t *testing.T) {
	sp := memsim.NewSpace(4096)
	ref, batch := NewTable(), NewTable()
	var accesses []Access
	var allocs []*memsim.Alloc
	for i := 0; i < 3; i++ {
		a := mkAlloc(t, sp, 256, "a")
		allocs = append(allocs, a)
		if _, err := ref.Insert(a, "f"); err != nil {
			t.Fatal(err)
		}
		if _, err := batch.Insert(a, "f"); err != nil {
			t.Fatal(err)
		}
	}
	// A mixed sequence: CPU writes, GPU reads/writes, an untracked access,
	// and an 8-byte access spanning two words. Applying it word by word and
	// in one batch must produce identical shadow bytes.
	for i := 0; i < 200; i++ {
		a := allocs[i%len(allocs)]
		dev, kind := machine.CPU, memsim.Write
		if i%3 == 1 {
			dev, kind = machine.GPU, memsim.Read
		} else if i%3 == 2 {
			dev, kind = machine.GPU, memsim.ReadWrite
		}
		accesses = append(accesses, Access{Dev: dev, Kind: kind, Addr: a.Base + memsim.Addr((i*8)%248), Size: 8})
	}
	accesses = append(accesses, Access{Dev: machine.CPU, Kind: memsim.Read, Addr: 0xdead0000, Size: 4})
	tracked := 0
	for _, ac := range accesses {
		if ref.Record(ac.Dev, ac.Addr, int64(ac.Size), ac.Kind) {
			tracked++
		}
	}
	last, untracked := batch.RecordAll(accesses, nil)
	if untracked != len(accesses)-tracked {
		t.Errorf("untracked = %d, want %d", untracked, len(accesses)-tracked)
	}
	if last == nil {
		t.Error("RecordAll returned no cache entry")
	}
	for i := range ref.Entries() {
		re, be := ref.Entries()[i], batch.Entries()[i]
		for w := range re.Shadow {
			if re.Shadow[w] != be.Shadow[w] {
				t.Fatalf("entry %d word %d: batch %08b != sequential %08b", i, w, be.Shadow[w], re.Shadow[w])
			}
		}
		if be.EverTouched != re.EverTouched {
			t.Errorf("entry %d EverTouched diverged", i)
		}
	}
}

func TestRecordAllHintSkipsStaleEntries(t *testing.T) {
	sp := memsim.NewSpace(4096)
	tb := NewTable()
	a := mkAlloc(t, sp, 64, "a")
	e, _ := tb.Insert(a, "f")
	tb.MarkFreed(a.ID)
	// A freed hint must not swallow accesses: the lookup runs and reports
	// the access untracked (the memory may be reused).
	_, untracked := tb.RecordAll([]Access{{Dev: machine.CPU, Kind: memsim.Write, Addr: a.Base, Size: 4}}, e)
	if untracked != 1 {
		t.Errorf("untracked = %d, want 1 (freed entry)", untracked)
	}
	if e.Shadow[0] != 0 {
		t.Error("RecordAll wrote through a freed hint")
	}
}
