package shadow

import (
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

// eachTable lays out entries that exercise every branch of the lookup:
//
//	a [0x10000, 0x10100)  b [0x10100, 0x10180)  c [0x10200, 0x10240)
//
// share one 4 KiB page (the sharedPage fallback), with a gap before c;
// d [0x20000, 0x22000) and e [0x22000, 0x22100) are adjacent sole page
// owners; f [0x30000, 0x30100) is freed.
func eachTable(t *testing.T) (*Table, map[string]*Entry) {
	t.Helper()
	tb := NewTable()
	es := map[string]*Entry{}
	for _, r := range []struct {
		name string
		base memsim.Addr
		size int64
	}{
		{"a", 0x10000, 0x100}, {"b", 0x10100, 0x80}, {"c", 0x10200, 0x40},
		{"d", 0x20000, 0x2000}, {"e", 0x22000, 0x100}, {"f", 0x30000, 0x100},
	} {
		e, err := tb.InsertRange(r.base, r.size, r.name, memsim.Managed, "test")
		if err != nil {
			t.Fatal(err)
		}
		es[r.name] = e
	}
	es["f"].Freed = true
	return tb, es
}

// element is one element access attributed to an entry: the record it
// came from, its index in that record, and its start address.
type element struct {
	rec, k int
	addr   memsim.Addr
	e      *Entry
}

// explode lists a batch's element starts with the live entry each lies
// in, by linear search over the table — the definition Each must meet.
func explode(tb *Table, batch []Access) (traced []element, untracked int) {
	for i := range batch {
		a := &batch[i]
		count := 1
		if a.Count > 1 {
			count = int(a.Count)
		}
		for k := 0; k < count; k++ {
			addr := a.Addr + memsim.Addr(int64(k)*int64(a.Stride))
			var in *Entry
			for _, e := range tb.Entries() {
				if !e.Freed && addr >= e.Base && addr < e.End {
					in = e
				}
			}
			if in == nil {
				untracked++
				continue
			}
			traced = append(traced, element{rec: i, k: k, addr: addr, e: in})
		}
	}
	return traced, untracked
}

func TestEachResolvesPieces(t *testing.T) {
	tb, es := eachTable(t)
	run := func(addr memsim.Addr, count, stride int32) Access {
		return Access{Dev: machine.GPU, Kind: memsim.Read, Size: 8, Addr: addr, Count: count, Stride: stride}
	}
	scalar := func(addr memsim.Addr) Access {
		return Access{Dev: machine.CPU, Kind: memsim.Write, Size: 4, Addr: addr}
	}
	cases := []struct {
		name   string
		hint   *Entry
		batch  []Access
		pieces int // expected number of fn calls
	}{
		{"run crossing adjacent entries in a shared page", nil, []Access{run(0x100f0, 6, 8)}, 2},
		{"run crossing adjacent sole-owner pages", nil, []Access{run(0x21ff8, 4, 8)}, 2},
		{"run through a gap", nil, []Access{run(0x10170, 20, 8)}, 2},
		{"elements starting in a gap", nil, []Access{run(0x10180, 4, 8), run(0x101fc, 1, 8), scalar(0x10240)}, 0},
		{"freed entry", nil, []Access{run(0x30000, 8, 8), scalar(0x30010)}, 0},
		{"stride 0 with count > 1", nil, []Access{run(0x10108, 5, 0), run(0x10190, 3, 0)}, 1},
		{"gapped stride wider than an entry", nil, []Access{run(0x10000, 6, 0x100)}, 3},
		{"count-1 record with a nonzero stride", nil, []Access{run(0x10010, 1, 64), run(0x10020, 0, 64)}, 2},
		{"scalars across entries", es["d"], []Access{scalar(0x20000), scalar(0x20004), scalar(0x10000), scalar(0x99999), scalar(0x22000)}, 4},
		{"stale hint: freed entry holding the address", es["f"], []Access{scalar(0x30000), run(0x30008, 4, 8)}, 0},
		{"stale hint: live entry missing the address", es["e"], []Access{run(0x10100, 4, 8)}, 1},
		{"nothing resolves: last is the hint", es["c"], []Access{scalar(0x40000), run(0x40000, 3, 4)}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantUn := explode(tb, c.batch)
			var got []element
			pieces := 0
			var prev struct {
				rec, end int
				e        *Entry
			}
			last, un := tb.Each(c.batch, c.hint, func(e *Entry, a *Access, addr memsim.Addr, n int) {
				rec := -1
				for i := range c.batch {
					if a == &c.batch[i] {
						rec = i
					}
				}
				if rec < 0 {
					t.Fatalf("piece %d: access is not an element of the batch", pieces)
				}
				if n < 1 {
					t.Fatalf("piece %d: n = %d", pieces, n)
				}
				// The element index of the piece's first element.
				k := 0
				if a.Stride != 0 {
					k = int(int64(addr-a.Addr) / int64(a.Stride))
				}
				// Maximal: a piece continuing the previous one's record
				// without a skipped element must be in another entry.
				if pieces > 0 && prev.rec == rec && prev.end == k && prev.e == e {
					t.Errorf("piece %d continues piece %d in the same entry", pieces, pieces-1)
				}
				for j := 0; j < n; j++ {
					got = append(got, element{rec: rec, k: k + j, addr: addr + memsim.Addr(int64(j)*int64(a.Stride)), e: e})
				}
				prev.rec, prev.end, prev.e = rec, k+n, e
				pieces++
			})
			if len(got) != len(want) {
				t.Fatalf("pieces cover %d elements, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("element %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
			if un != wantUn {
				t.Errorf("untracked = %d, want %d", un, wantUn)
			}
			wantLast := c.hint
			if len(want) > 0 {
				wantLast = want[len(want)-1].e
			}
			if last != wantLast {
				t.Errorf("last = %v, want %v", last, wantLast)
			}
			if pieces != c.pieces {
				t.Errorf("%d pieces, want %d", pieces, c.pieces)
			}
		})
	}
}

func TestHolds(t *testing.T) {
	_, es := eachTable(t)
	var none *Entry
	for _, c := range []struct {
		e    *Entry
		addr memsim.Addr
		want bool
	}{
		{none, 0x10000, false},
		{es["a"], 0x10000, true},
		{es["a"], 0x100ff, true},
		{es["a"], 0x10100, false},
		{es["a"], 0xffff, false},
		{es["f"], 0x30000, false}, // freed
	} {
		if got := c.e.Holds(c.addr); got != c.want {
			t.Errorf("%v.Holds(%#x) = %v, want %v", c.e, c.addr, got, c.want)
		}
	}
}
