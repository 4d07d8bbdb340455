// Package shadow implements XPlacer's shadow memory (paper §III-C, Fig. 3).
//
// For every traced allocation the runtime keeps one shadow byte per 32-bit
// word of user memory (~25% overhead, as in the paper). Seven bits record
// which processor wrote the word, which processor wrote it last, and which
// (reader, value-origin) combinations occurred on reads. A sorted
// allocation table — the shadow memory table, SMT — maps addresses to
// shadow entries. Lookup goes through a two-level page index (radix map
// from 4 KiB address page to owning entry), making find O(1); the sorted
// table is kept for ordered iteration, overlap checks, and as the lookup
// fallback on pages shared by several entries, where it still uses the
// paper's §IV-D rule (linear search below 64 entries, binary above).
package shadow

import (
	"fmt"
	"sort"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

// Shadow byte bit flags. One byte covers one 32-bit word of user memory.
const (
	// CPUWrote / GPUWrote: the device wrote this word at least once.
	CPUWrote byte = 1 << 0
	GPUWrote byte = 1 << 1
	// LastWriterGPU: the most recent write came from the GPU (clear = CPU).
	LastWriterGPU byte = 1 << 2
	// ReadCC..ReadGG: a (reader, origin-of-last-write) combination occurred.
	// ReadCG is "C>G" in the paper's Fig. 4: the GPU read a value whose last
	// writer was the CPU.
	ReadCC byte = 1 << 3 // CPU read a CPU-written value
	ReadCG byte = 1 << 4 // GPU read a CPU-written value
	ReadGC byte = 1 << 5 // CPU read a GPU-written value
	ReadGG byte = 1 << 6 // GPU read a GPU-written value
)

// linearCutoff is the SMT size at which the sorted-table lookup switches
// from linear to binary search (§IV-D: "linear search when the number of
// allocations is less than 64, and binary search otherwise"). The sorted
// search is now the fallback behind the page index below; it still
// resolves pages shared by more than one entry.
const linearCutoff = 64

// Page-index geometry. The index is a two-level radix structure over
// 4 KiB address pages: a directory map keyed by the high page bits points
// at fixed-size leaves of per-page slots. A slot holds the one entry
// covering that page, nil when the page is untracked, or the sharedPage
// sentinel when several small entries share the page (possible for
// xplrt-traced real heap addresses), in which case lookup falls back to
// the sorted table. This makes find O(1) for the overwhelmingly common
// cases — hit in a page-owning entry, or a miss — independent of the
// number of allocations.
const (
	pageShift = 12 // 4 KiB index pages
	leafBits  = 9  // 512 pages (2 MiB of address space) per leaf
	leafSlots = 1 << leafBits
)

// pageLeaf is one directory leaf: per-page owner slots.
type pageLeaf [leafSlots]*Entry

// sharedPage marks an index page covered by more than one entry.
var sharedPage = &Entry{Label: "<shared index page>"}

// WordSize is the user-memory granularity of one shadow byte.
const WordSize = 4

// Update returns the shadow byte after an access by dev of the given kind.
// A read-modify-write records the read (against the current last writer)
// and then the write.
func Update(b byte, dev machine.Device, kind memsim.AccessKind) byte {
	if kind != memsim.Write { // Read or ReadWrite: record the read first.
		gpuOrigin := b&LastWriterGPU != 0
		switch {
		case dev == machine.CPU && !gpuOrigin:
			b |= ReadCC
		case dev == machine.GPU && !gpuOrigin:
			b |= ReadCG
		case dev == machine.CPU && gpuOrigin:
			b |= ReadGC
		default:
			b |= ReadGG
		}
	}
	if kind != memsim.Read { // Write or ReadWrite: record the write.
		if dev == machine.CPU {
			b = (b | CPUWrote) &^ LastWriterGPU
		} else {
			b = b | GPUWrote | LastWriterGPU
		}
	}
	return b
}

// updateTab precomputes Update for every (device, kind, shadow byte)
// triple. The batch path applies one access to a run of shadow bytes, so
// a single L1-resident table lookup per byte replaces Update's branches;
// Update stays the reference definition the table is built from.
var updateTab [int(machine.NumDevices)][int(memsim.ReadWrite) + 1][256]byte

func init() {
	for dev := range updateTab {
		for kind := range updateTab[dev] {
			for b := range updateTab[dev][kind] {
				updateTab[dev][kind][b] = Update(byte(b), machine.Device(dev), memsim.AccessKind(kind))
			}
		}
	}
}

// Entry is one traced allocation's shadow state.
type Entry struct {
	// Base and End delimit the traced address range.
	Base, End memsim.Addr
	// AllocID links back to the memsim allocation.
	AllocID int
	// Label is the user-facing name (XplAllocData expansion or alloc label).
	Label string
	// Kind records the allocation family (decides which anti-patterns
	// apply; §III-A).
	Kind memsim.Kind
	// AllocFn is the allocation function the wrapper intercepted.
	AllocFn string
	// Shadow holds one byte per 32-bit word.
	Shadow []byte
	// Freed marks entries whose user memory was released; their shadow is
	// kept until the next diagnostic (§III-C delayed shadow free).
	Freed bool
	// TransferredIn / TransferredOut count explicit memcpy bytes in each
	// direction (for the unnecessary-transfer diagnostic).
	TransferredIn, TransferredOut int64
	// EverTouched records whether any access hit the entry since its
	// allocation. Unlike the shadow bits it survives Reset, so the
	// unused-allocation diagnostic is not fooled by per-iteration
	// intervals.
	EverTouched bool
}

// Words returns the number of shadow words in the entry.
func (e *Entry) Words() int { return len(e.Shadow) }

// Contains reports whether addr lies in the entry's range.
func (e *Entry) Contains(addr memsim.Addr) bool { return addr >= e.Base && addr < e.End }

// Holds reports whether e is a live (not Freed) entry containing addr; a
// nil entry holds nothing. It is the test every lookup hint passes before
// it is trusted in place of a Find.
func (e *Entry) Holds(addr memsim.Addr) bool {
	return e != nil && !e.Freed && addr >= e.Base && addr < e.End
}

// wordIndex maps an address to its shadow byte index.
func (e *Entry) wordIndex(addr memsim.Addr) int { return int(addr-e.Base) / WordSize }

// Table is the shadow memory table: entries sorted by base address, plus
// an AllocID index for O(1) allocation-to-entry lookups. The table itself
// is not goroutine-safe; concurrent recording front ends (xplrt,
// trace.Tracer) buffer accesses in the recording engine, which applies
// them in batches under its own lock via RecordAll.
type Table struct {
	entries []*Entry
	byID    map[int]*Entry       // AllocID -> entry, simulated allocations only
	dir     map[uint64]*pageLeaf // page index directory: page>>leafBits -> leaf
	lookups int64                // total lookup operations (overhead accounting)
	// leaf caches the directory's answer for the 2 MiB region leafKey of
	// the last lookup that found a leaf, so a run of lookups in one
	// region skips the map. A leaf, once in the directory, stays there
	// and changes only in place until rebuildIndex, which drops the cache.
	leaf    *pageLeaf
	leafKey uint64
}

// NewTable returns an empty SMT.
func NewTable() *Table { return &Table{byID: map[int]*Entry{}, dir: map[uint64]*pageLeaf{}} }

// Len returns the number of entries (live and freed-but-retained).
func (t *Table) Len() int { return len(t.entries) }

// Lookups returns the number of Find operations performed.
func (t *Table) Lookups() int64 { return t.lookups }

// Entries returns the entries in base-address order; the slice must not be
// modified.
func (t *Table) Entries() []*Entry { return t.entries }

// Insert registers an allocation and creates its shadow memory.
// Inserting an overlapping range is an error (it would indicate a missed
// free or a broken allocator).
func (t *Table) Insert(a *memsim.Alloc, allocFn string) (*Entry, error) {
	e, err := t.InsertRange(a.Base, a.Size, a.Label, a.Kind, allocFn)
	if err != nil {
		return nil, err
	}
	e.AllocID = a.ID
	t.byID[a.ID] = e
	return e, nil
}

// InsertRange registers an arbitrary address range — used by the plain-Go
// runtime (xplrt), which traces real heap addresses rather than simulated
// allocations. Overlapping ranges are rejected.
func (t *Table) InsertRange(base memsim.Addr, size int64, label string, kind memsim.Kind, allocFn string) (*Entry, error) {
	words := int((size + WordSize - 1) / WordSize)
	e := &Entry{
		Base:    base,
		End:     base + memsim.Addr(size),
		AllocID: -1,
		Label:   label,
		Kind:    kind,
		AllocFn: allocFn,
		Shadow:  make([]byte, words),
	}
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Base >= e.Base })
	if i < len(t.entries) && t.entries[i].Base < e.End {
		return nil, fmt.Errorf("shadow: entry [%#x,%#x) overlaps existing [%#x,%#x)", e.Base, e.End, t.entries[i].Base, t.entries[i].End)
	}
	if i > 0 && t.entries[i-1].End > e.Base {
		return nil, fmt.Errorf("shadow: entry [%#x,%#x) overlaps existing [%#x,%#x)", e.Base, e.End, t.entries[i-1].Base, t.entries[i-1].End)
	}
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	t.indexInsert(e)
	return e, nil
}

// indexInsert claims the entry's pages in the page index. A page already
// owned by another entry degrades to the sharedPage sentinel; lookups on
// it fall back to the sorted table.
func (t *Table) indexInsert(e *Entry) {
	if t.dir == nil {
		t.dir = map[uint64]*pageLeaf{}
	}
	first := uint64(e.Base) >> pageShift
	last := uint64(e.End-1) >> pageShift
	for p := first; p <= last; p++ {
		leaf := t.dir[p>>leafBits]
		if leaf == nil {
			leaf = &pageLeaf{}
			t.dir[p>>leafBits] = leaf
		}
		switch slot := &leaf[p&(leafSlots-1)]; *slot {
		case nil:
			*slot = e
		case e:
		default:
			*slot = sharedPage
		}
	}
}

// rebuildIndex reconstructs the page index from the live entry list; used
// by the cold removal path (DropFreed) instead of tracking per-page
// reference counts.
func (t *Table) rebuildIndex() {
	t.dir = map[uint64]*pageLeaf{}
	t.leaf = nil
	for _, e := range t.entries {
		t.indexInsert(e)
	}
}

// Find returns the entry containing addr, or nil if the address is not
// traced (untracked accesses are ignored, §III-C). Freed entries no longer
// match: their memory may be reused.
func (t *Table) Find(addr memsim.Addr) *Entry {
	if e := t.find(addr); e != nil && !e.Freed {
		return e
	}
	return nil
}

// FindAny is Find including freed-but-retained entries — diagnostics
// relabel and summarize those until the next reset (§III-C delayed shadow
// free).
func (t *Table) FindAny(addr memsim.Addr) *Entry { return t.find(addr) }

func (t *Table) find(addr memsim.Addr) *Entry {
	t.lookups++
	key := uint64(addr) >> (pageShift + leafBits)
	leaf := t.leaf
	if leaf == nil || key != t.leafKey {
		if leaf = t.dir[key]; leaf == nil {
			return nil // no entry covers the 2 MiB around addr
		}
		t.leaf, t.leafKey = leaf, key
	}
	e := leaf[(uint64(addr)>>pageShift)&(leafSlots-1)]
	switch e {
	case nil:
		return nil // untracked page
	case sharedPage:
		return t.searchSorted(addr) // several entries share the page
	default:
		if e.Contains(addr) {
			return e
		}
		return nil // sole owner of the page, but addr misses its range
	}
}

// searchSorted is the pre-index §IV-D lookup over the sorted entry list,
// kept as the fallback for pages covered by more than one entry.
func (t *Table) searchSorted(addr memsim.Addr) *Entry {
	n := len(t.entries)
	if n < linearCutoff {
		for _, e := range t.entries {
			if e.Contains(addr) {
				return e
			}
		}
		return nil
	}
	i := sort.Search(n, func(i int) bool { return t.entries[i].End > addr })
	if i < n && t.entries[i].Contains(addr) {
		return t.entries[i]
	}
	return nil
}

// FindByID returns the entry for a simulated allocation id via the AllocID
// index, or nil. Freed entries are still returned (transfer counters and
// labels apply until the next diagnostic drops them).
func (t *Table) FindByID(allocID int) *Entry { return t.byID[allocID] }

// MarkFreed flags the entry for the allocation as freed; the shadow bytes
// survive until DropFreed (called after the next diagnostic).
func (t *Table) MarkFreed(allocID int) {
	if e := t.byID[allocID]; e != nil {
		e.Freed = true
	}
}

// DropFreed removes entries marked freed (invoked after a diagnostic has
// analyzed them).
func (t *Table) DropFreed() {
	kept := t.entries[:0]
	for _, e := range t.entries {
		if !e.Freed {
			kept = append(kept, e)
		} else if e.AllocID >= 0 {
			delete(t.byID, e.AllocID)
		}
	}
	// Zero the tail so dropped entries can be collected.
	for i := len(kept); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	dropped := len(t.entries) != len(kept)
	t.entries = kept
	if dropped {
		t.rebuildIndex()
	}
}

// Record registers an access of size bytes at addr and reports whether the
// address was traced. Unknown addresses are ignored (§III-C). The access
// may span multiple shadow words.
func (t *Table) Record(dev machine.Device, addr memsim.Addr, size int64, kind memsim.AccessKind) bool {
	e := t.Find(addr)
	if e == nil {
		return false
	}
	e.record(addr, size, dev, kind)
	return true
}

// Transfer applies an explicit copy of n bytes at offset off of the
// allocation with the given id (§III-C, "Unnecessary data transfers"): a
// host-to-device copy is a CPU write of the range, a device-to-host copy
// a CPU read, and the entry's transfer byte counters advance. It reports
// whether the range was traced; an unknown id is untracked.
func (t *Table) Transfer(id int, toDevice bool, off, n int64) bool {
	e := t.byID[id]
	if e == nil {
		return false
	}
	kind := memsim.Read
	if toDevice {
		kind = memsim.Write
		e.TransferredIn += n
	} else {
		e.TransferredOut += n
	}
	return t.Record(machine.CPU, e.Base+memsim.Addr(off), n, kind)
}

// record applies one access to the entry's shadow words; applyWords (see
// bulk.go) is the single shadow-update terminal shared by Record,
// RecordAll, and the range collapse.
func (e *Entry) record(addr memsim.Addr, size int64, dev machine.Device, kind memsim.AccessKind) {
	e.applyWords(e.wordIndex(addr), e.wordIndex(addr+memsim.Addr(size)-1), dev, kind)
}

// recordRange applies a strided sweep of count elements (size bytes each,
// starting stride bytes apart) whose element starts all lie in the entry.
// It is exact with respect to the per-word semantics of applying `record`
// per element:
//
//   - For Read and Write the shadow transition is idempotent (tab∘tab =
//     tab), so a gapless run (stride <= size) collapses to ONE table
//     application per covered word — the bulk fast path.
//   - ReadWrite is not idempotent (a second application adds the
//     Read{dev,dev}-origin flag), so the run collapses only when no word
//     is shared by two elements: word-aligned elements with stride ==
//     size. Every other shape takes the per-element sweep, which applies
//     the table exactly as many times per word as scalar recording would.
//
// Gapped runs (stride > size) always take the per-element sweep so
// untouched words stay untouched.
func (e *Entry) recordRange(addr memsim.Addr, count int, stride, size int64, dev machine.Device, kind memsim.AccessKind) {
	e.EverTouched = true
	if count <= 0 || size <= 0 {
		return
	}
	if int(dev) >= len(updateTab) || int(kind) >= len(updateTab[0]) {
		for k := 0; k < count; k++ {
			e.record(addr+memsim.Addr(int64(k)*stride), size, dev, kind)
		}
		return
	}
	if count > 1 && stride <= size &&
		(kind != memsim.ReadWrite ||
			(stride == size && addr%WordSize == 0 && stride%WordSize == 0)) {
		first := e.wordIndex(addr)
		last := e.wordIndex(addr + memsim.Addr(int64(count-1)*stride+size) - 1)
		e.applyWords(first, last, dev, kind)
		return
	}
	tab := &updateTab[dev][kind]
	for k := 0; k < count; k++ {
		a := addr + memsim.Addr(int64(k)*stride)
		first := e.wordIndex(a)
		last := e.wordIndex(a + memsim.Addr(size) - 1)
		if last >= len(e.Shadow) {
			last = len(e.Shadow) - 1
		}
		for i := first; i <= last; i++ {
			e.Shadow[i] = tab[e.Shadow[i]]
		}
	}
}

// Access is one buffered access. The recording engine (internal/record)
// appends these to its per-P slots and single-owner buffers on the hot
// path and applies them in batch at flush points.
//
// Count and Stride run-length-encode a strided sweep: Count elements of
// Size bytes each, the k-th starting at Addr + k*Stride. Count 0 or 1 is
// a scalar element access, so plain literals without the new fields keep
// their pre-range meaning. Stride is non-negative (front ends normalize
// descending sweeps, which touch the same words).
//
// All three run fields are 32-bit on purpose: element accesses are a few
// bytes (bulk effects go through transfers, not Record), and keeping the
// struct at 24 bytes — the same size it had before the run encoding —
// is what keeps the scalar buffered hot path's memory traffic unchanged.
// Producers clamp oversized values rather than letting them wrap.
type Access struct {
	Dev    machine.Device
	Kind   memsim.AccessKind
	Size   int32
	Addr   memsim.Addr
	Count  int32
	Stride int32
}

// Elems returns the number of element accesses the entry encodes.
func (a *Access) Elems() int64 {
	if a.Count > 1 {
		return int64(a.Count)
	}
	return 1
}

// Each resolves a batch of accesses against the table and calls fn once
// per traced piece: n elements of a, the first starting at addr, whose
// element starts all lie in the live entry e. A scalar (Count 0 or 1) is
// one piece of one element; a run splits into the longest stretches whose
// element starts lie in one live entry. An element that starts in no live
// entry is skipped and counted in untracked. hint seeds the lookup: an
// element start that the last resolved entry holds (Entry.Holds) needs
// no Find. last is the entry of the last piece, or hint if none
// resolved; callers carry it to their next batch.
//
// This is the one address-to-entry rule of every table-backed consumer —
// the shadow update, the heat map and the pattern classifier — so each
// attributes an element to the same allocation.
func (t *Table) Each(batch []Access, hint *Entry, fn func(e *Entry, a *Access, addr memsim.Addr, n int)) (last *Entry, untracked int) {
	last = hint
	for i := range batch {
		a := &batch[i]
		if a.Count <= 1 {
			// Scalars, the common drained shape, skip the run loop.
			e := last
			if !e.Holds(a.Addr) {
				if e = t.Find(a.Addr); e == nil {
					untracked++
					continue
				}
				last = e
			}
			fn(e, a, a.Addr, 1)
			continue
		}
		count, stride, addr := int(a.Count), int64(a.Stride), a.Addr
		for k := 0; k < count; {
			e := last
			if !e.Holds(addr) {
				if e = t.Find(addr); e == nil {
					untracked++
					k++
					addr += memsim.Addr(stride)
					continue
				}
				last = e
			}
			n := count - k
			if stride > 0 {
				// Longest prefix whose element starts stay inside e.
				if r := int((int64(e.End-addr)-1)/stride) + 1; r < n {
					n = r
				}
			}
			fn(e, a, addr, n)
			k += n
			addr += memsim.Addr(int64(n) * stride)
		}
	}
	return last, untracked
}

// recordPiece applies one piece Each resolved to its entry's shadow.
func recordPiece(e *Entry, a *Access, addr memsim.Addr, n int) {
	e.recordRange(addr, n, int64(a.Stride), int64(a.Size), a.Dev, a.Kind)
}

// RecordAll applies a batch of buffered accesses in order. hint seeds the
// last-entry lookup cache: consecutive accesses into the same allocation
// skip the SMT search entirely, which is what makes batched draining
// cheaper than per-access Find calls. It returns the final cache value
// (for the caller to carry to its next batch) and the number of accesses
// that hit no traced entry. Cache hits do not count as Lookups. Run
// records resolve through Each.
//
// Consecutive scalar accesses that sweep one entry with the same device
// and kind — the dominant drained shape, a loop walking an array —
// coalesce into a single applyWords call over the covered word range,
// turning per-access table updates into the word-at-a-time bulk path.
// The coalescing is exact per word: a record extends the run only when
// its first word is the word right after the run (no word repeats, so
// even non-idempotent ReadWrite composes correctly), or, for idempotent
// Read/Write — where applying the update once or twice per word is the
// same — when it starts inside or adjacent to the run and only re-covers
// or extends it.
func (t *Table) RecordAll(batch []Access, hint *Entry) (last *Entry, untracked int) {
	last = hint
	for i := 0; i < len(batch); {
		a := &batch[i]
		if a.Count > 1 {
			var un int
			last, un = t.Each(batch[i:i+1], last, recordPiece)
			untracked += un
			i++
			continue
		}
		e := last
		if !e.Holds(a.Addr) {
			e = t.Find(a.Addr)
			if e == nil {
				untracked++
				i++
				continue
			}
			last = e
		}
		if int(a.Dev) >= len(updateTab) || int(a.Kind) >= len(updateTab[0]) {
			e.record(a.Addr, int64(a.Size), a.Dev, a.Kind)
			i++
			continue
		}
		first := e.wordIndex(a.Addr)
		lastW := e.wordIndex(a.Addr + memsim.Addr(a.Size) - 1)
		idem := a.Kind != memsim.ReadWrite
		j := i + 1
		for ; j < len(batch); j++ {
			b := &batch[j]
			if b.Count > 1 || b.Dev != a.Dev || b.Kind != a.Kind || !e.Contains(b.Addr) {
				break
			}
			bf := e.wordIndex(b.Addr)
			if bf != lastW+1 && !(idem && bf >= first && bf <= lastW) {
				break
			}
			if bl := e.wordIndex(b.Addr + memsim.Addr(b.Size) - 1); bl > lastW {
				lastW = bl
			}
		}
		e.applyWords(first, lastW, a.Dev, a.Kind)
		i = j
	}
	return last, untracked
}

// Reset clears the per-interval shadow bits and transfer counters
// (tracePrint resets the shadow memory after each diagnostic, §III-C) and
// drops freed entries. The last-writer bit survives: the paper defines the
// origin of a read as the last write "regardless if it occurred in the
// same iteration or earlier (e.g., at start up)".
func (t *Table) Reset() {
	for _, e := range t.entries {
		clearInterval(e.Shadow)
		e.TransferredIn = 0
		e.TransferredOut = 0
	}
	t.DropFreed()
}
