package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// notes feeds a run to t element by element, as count Note calls.
func notes(t *Tracker, addr memsim.Addr, count int, stride, size int64) {
	for k := 0; k < count; k++ {
		t.Note(addr+memsim.Addr(int64(k)*stride), size)
	}
}

// TestNoteRunEqualsNotes checks that one NoteRun leaves the tracker
// exactly as count Note calls do: first on a fresh tracker, then after
// earlier runs, and once all 16 histogram slots are taken so new deltas
// land in the overflow tally.
func TestNoteRunEqualsNotes(t *testing.T) {
	type run struct {
		addr   memsim.Addr
		count  int
		stride int64
	}
	var runs []run
	// 20 runs with distinct strides and distinct transition deltas: well
	// past the 16 histogram slots.
	addr := memsim.Addr(0x10000)
	for i := 0; i < 20; i++ {
		stride := int64(8 * (i + 1))
		runs = append(runs, run{addr, 3 + i%4, stride})
		addr += memsim.Addr(int64(3+i%4)*stride + int64(4096*(i+1)))
	}
	runs = append(runs,
		run{0x500, 1, 8},   // a single element
		run{0x500, 5, 0},   // the same element five times
		run{0x9000, 40, 8}, // a stride already in the histogram
		run{0x100, 2, 1 << 20},
	)
	var byRun, byNote Tracker
	for i, r := range runs {
		byRun.NoteRun(r.addr, r.count, r.stride, 8)
		notes(&byNote, r.addr, r.count, r.stride, 8)
		if byRun != byNote {
			t.Fatalf("after run %d %+v: NoteRun %+v, Notes %+v", i, r, byRun, byNote)
		}
	}
	if byRun.overflow == 0 || byRun.nd != maxDeltas {
		t.Fatalf("histogram never filled: %d slots, overflow %d", byRun.nd, byRun.overflow)
	}
	byRun.NoteRun(0x100, 0, 8, 8) // an empty run is a no-op
	if byRun != byNote {
		t.Errorf("empty NoteRun changed the tracker")
	}
}

// TestClassBoundaries pins each classifier rule at its threshold, on 100
// samples of 8-byte elements: the share that just passes a rule and the
// one that just misses it.
func TestClassBoundaries(t *testing.T) {
	for _, c := range []struct {
		name    string
		samples [][2]int64 // (delta, count) pairs
		total   int64
		want    Class
		stride  int64
	}{
		// domPct: a uniform 64-byte stride at 85% is Strided; at 84% the
		// rest (16 far jumps) decides, and 16% far is Scatter.
		{"dominant at domPct", [][2]int64{{64, domPct}, {8192, 100 - domPct}}, 100, Strided, 64},
		{"dominant below domPct", [][2]int64{{64, domPct - 1}, {8192, 101 - domPct}}, 100, Scatter, 0},
		{"dominant unit stride", [][2]int64{{8, domPct}, {8192, 100 - domPct}}, 100, Sequential, 0},
		// localPct: no delta dominates, but local steps (within 4
		// elements) at 85% are Sequential; at 84% the stream is Scatter.
		{"local at localPct", [][2]int64{{8, 30}, {-8, 30}, {16, localPct - 60}, {1000, 100 - localPct}}, 100, Sequential, 0},
		{"local below localPct", [][2]int64{{8, 30}, {-8, 30}, {16, localPct - 61}, {1000, 101 - localPct}}, 100, Scatter, 0},
		// farPctMax: neither rule holds; far jumps at 30% are Scatter,
		// at 31% Random.
		{"far at farPctMax", [][2]int64{{1000, 35}, {-1000, 35}, {8192, farPctMax}}, 100, Scatter, 0},
		{"far above farPctMax", [][2]int64{{1000, 35}, {-1000, 34}, {8192, farPctMax + 1}}, 100, Random, 0},
		// minSamples: fewer samples stay Unknown.
		{"too few samples", [][2]int64{{8, minSamples - 1}}, minSamples - 1, Unknown, 0},
		{"enough samples", [][2]int64{{8, minSamples}}, minSamples, Sequential, 0},
	} {
		var tr Tracker
		for _, s := range c.samples {
			tr.noteDelta(s[0], s[1], 8)
		}
		r := tr.Classify()
		if r.Samples != c.total || r.Class != c.want || r.Stride != c.stride {
			t.Errorf("%s: %d samples, class %v stride %d; want %d, %v stride %d", c.name, r.Samples, r.Class, r.Stride, c.total, c.want, c.stride)
		}
	}
}

// TestSinkRunEqualsScalars feeds one seeded stream of run records to a
// Sink and its element-by-element explosion to another, over a table of
// adjacent, gapped and untracked ranges, with span changes between
// batches. The first three ranges share one 4 KiB index page. Runs cross
// entry boundaries and run off into untracked space; halfway through,
// the second range is freed while the sinks' lookup hints are on it. The
// classified rows must be identical.
func TestSinkRunEqualsScalars(t *testing.T) {
	newTable := func() *shadow.Table {
		tb := shadow.NewTable()
		for _, r := range [][2]int64{{0x10000, 256}, {0x10100, 512}, {0x10400, 128}, {0x20000, 4096}} {
			if _, err := tb.InsertRange(memsim.Addr(r[0]), r[1], fmt.Sprintf("a%x", r[0]), memsim.Managed, "test"); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	runs, scalars := NewSink(newTable()), NewSink(newTable())
	rng := rand.New(rand.NewSource(17))
	starts := []int64{0x10000, 0x100f8, 0x102f0, 0x10380, 0x20000, 0x20ff0}
	strides := []int64{4, 8, 16, 24, 0}
	crossed := false // a run starting in the first entry reached the second
	for batch := 0; batch < 40; batch++ {
		if batch%10 == 9 {
			runs.BeginSpan(fmt.Sprintf("k%d", batch))
			scalars.BeginSpan(fmt.Sprintf("k%d", batch))
		}
		if batch == 20 {
			runs.table.Find(0x10100).Freed = true
			scalars.table.Find(0x10100).Freed = true
		}
		var rb, sb []shadow.Access
		for i := 0; i < 8; i++ {
			a := shadow.Access{
				Dev:    machine.Device(rng.Intn(2)),
				Kind:   memsim.AccessKind(rng.Intn(3)),
				Addr:   memsim.Addr(starts[rng.Intn(len(starts))] + int64(8*rng.Intn(4))),
				Size:   8,
				Count:  int32(2 + rng.Intn(60)),
				Stride: int32(strides[rng.Intn(len(strides))]),
			}
			rb = append(rb, a)
			last := a.Addr + memsim.Addr(int64(a.Count-1)*int64(a.Stride))
			crossed = crossed || (a.Addr < 0x10100 && last >= 0x10100)
			for k := int64(0); k < int64(a.Count); k++ {
				sb = append(sb, shadow.Access{Dev: a.Dev, Kind: a.Kind, Addr: a.Addr + memsim.Addr(k*int64(a.Stride)), Size: a.Size})
			}
		}
		if batch == 19 {
			// Leave both hints on the range freed next.
			a := shadow.Access{Dev: machine.CPU, Kind: memsim.Read, Addr: 0x10100, Size: 8}
			rb, sb = append(rb, a), append(sb, a)
		}
		runs.Apply(rb, nil)
		scalars.Apply(sb, nil)
	}
	rr, sr := runs.Rows(), scalars.Rows()
	if len(rr) != len(sr) {
		t.Fatalf("%d rows from runs, %d from scalars", len(rr), len(sr))
	}
	for i := range rr {
		if rr[i] != sr[i] {
			t.Errorf("row %d: runs %+v, scalars %+v", i, rr[i], sr[i])
		}
	}
	if !crossed {
		t.Error("no run crossed from the first entry into the second")
	}
}
