package shadow

import (
	"math/rand"
	"testing"

	"xplacer/internal/memsim"
)

// bytewiseCensus is the reference census: the per-byte definitions the
// diagnostics applied before Census existed, one byte at a time.
func bytewiseCensus(sh []byte) Census {
	var c Census
	for _, b := range sh {
		if b&CPUWrote != 0 {
			c.CPUWrote++
		}
		if b&GPUWrote != 0 {
			c.GPUWrote++
		}
		if b&ReadCC != 0 {
			c.ReadCC++
		}
		if b&ReadCG != 0 {
			c.ReadCG++
		}
		if b&ReadGC != 0 {
			c.ReadGC++
		}
		if b&ReadGG != 0 {
			c.ReadGG++
		}
		if b&^LastWriterGPU != 0 {
			c.Touched++
		}
		cpu := b&(CPUWrote|ReadCC|ReadGC) != 0
		gpu := b&(GPUWrote|ReadCG|ReadGG) != 0
		if cpu && gpu && b&(CPUWrote|GPUWrote) != 0 {
			c.Alternating++
		}
	}
	return c
}

// TestCensusMatchesBytewise compares Census with the bytewise reference
// for every byte value at every position of every length 0-17 (so at
// every lane position, and in the tail), over a zero and a random
// background, and on a 4097-word entry.
func TestCensusMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 17; n++ {
		noise := make([]byte, n)
		rng.Read(noise)
		for _, bg := range [][]byte{make([]byte, n), noise} {
			sh := make([]byte, n)
			if n == 0 {
				if got := (&Entry{Shadow: sh}).Census(); got != (Census{}) {
					t.Fatalf("empty entry: census %+v", got)
				}
			}
			for pos := 0; pos < n; pos++ {
				for v := 0; v < 256; v++ {
					copy(sh, bg)
					sh[pos] = byte(v)
					if got, want := (&Entry{Shadow: sh}).Census(), bytewiseCensus(sh); got != want {
						t.Fatalf("len %d, byte %#02x at %d over %x: census %+v, want %+v", n, v, pos, bg, got, want)
					}
				}
			}
		}
	}
	big := make([]byte, 4097)
	rng.Read(big)
	if got, want := (&Entry{Shadow: big}).Census(), bytewiseCensus(big); got != want {
		t.Fatalf("4097 words: census %+v, want %+v", got, want)
	}
}

// FuzzCensus cross-checks Census against the bytewise reference on
// arbitrary shadow contents.
func FuzzCensus(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{CPUWrote | ReadCG, GPUWrote | LastWriterGPU, 0, 0xFF, ReadGC, 0, 0, LastWriterGPU, ReadCC})
	f.Fuzz(func(t *testing.T, sh []byte) {
		if got, want := (&Entry{Shadow: sh}).Census(), bytewiseCensus(sh); got != want {
			t.Fatalf("census %+v, want %+v over %x", got, want, sh)
		}
	})
}

// TestResetClearsIntervalBits resets entries of lengths that are not
// multiples of eight, so both the eight-byte steps and the tail run,
// and requires only the last-writer bits to survive.
func TestResetClearsIntervalBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := NewTable()
	var before [][]byte
	base := memsim.Addr(0x100000)
	for _, words := range []int{1, 3, 7, 8, 9, 15, 17, 4097} {
		e, err := tb.InsertRange(base, int64(words*WordSize), "e", memsim.Managed, "test")
		if err != nil {
			t.Fatal(err)
		}
		rng.Read(e.Shadow)
		e.TransferredIn, e.TransferredOut = 5, 6
		before = append(before, append([]byte(nil), e.Shadow...))
		base += memsim.Addr(words*WordSize) + 64
	}
	tb.Reset()
	for i, e := range tb.Entries() {
		for w, b := range e.Shadow {
			if want := before[i][w] & LastWriterGPU; b != want {
				t.Fatalf("entry %d (%d words) word %d: %08b after reset, want %08b", i, len(e.Shadow), w, b, want)
			}
		}
		if e.TransferredIn != 0 || e.TransferredOut != 0 {
			t.Errorf("entry %d: transfer counters survived reset", i)
		}
	}
}

// TestFindForgetsCachedLeaf checks the page index's last-leaf cache: a
// lookup that misses every leaf caches nothing, so an entry inserted
// into that region afterwards is found; and dropping freed entries
// rebuilds the index, so a leaf cached before the rebuild is not
// consulted after it.
func TestFindForgetsCachedLeaf(t *testing.T) {
	tb := NewTable()
	const a, b = memsim.Addr(0x400000), memsim.Addr(0x400800)
	if tb.Find(a) != nil {
		t.Fatal("empty table found an entry")
	}
	ea, err := tb.InsertRange(a, 64, "a", memsim.Managed, "test")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Find(a) != ea {
		t.Fatal("entry inserted after a miss in its region not found")
	}
	ea.Freed = true
	tb.DropFreed()
	if got := tb.FindAny(a); got != nil {
		t.Fatalf("dropped entry still found: %+v", got)
	}
	eb, err := tb.InsertRange(b, 64, "b", memsim.Managed, "test")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Find(b) != eb || tb.Find(a) != nil {
		t.Fatal("lookups after the rebuild disagree with the table")
	}
}
