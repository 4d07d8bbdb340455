package xplrt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pipeline"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// Each test runs against the process-global runtime; reset first.

func TestTraceRoundtrip(t *testing.T) {
	Reset()
	xs := Slice[int64](16, "xs")
	*TraceW(&xs[0]) = 42
	if got := *TraceR(&xs[0]); got != 42 {
		t.Fatalf("read back %d", got)
	}
	*TraceRW(&xs[0]) += 8
	if xs[0] != 50 {
		t.Fatalf("xs[0] = %d", xs[0])
	}
	r := Report()
	if len(r.Allocs) != 1 {
		t.Fatalf("allocs = %d", len(r.Allocs))
	}
	s := r.Allocs[0]
	if s.WriteC == 0 || s.ReadCC == 0 {
		t.Errorf("summary did not record accesses: %+v", s)
	}
}

func TestDeviceRoles(t *testing.T) {
	Reset()
	xs := Slice[int32](8, "xs")
	*TraceW(&xs[3]) = 7 // CPU write
	OnDevice(GPU, func(s *DeviceScope) {
		_ = *ScopeR(s, &xs[3]) // GPU read of a CPU value
	})
	r := Report()
	s := r.Allocs[0]
	if s.ReadCG != 1 {
		t.Errorf("C>G = %d, want 1", s.ReadCG)
	}
	if s.Alternating != 1 {
		t.Errorf("alternating = %d, want 1", s.Alternating)
	}
	foundAlt := false
	for _, f := range r.Findings {
		if f.Kind == detect.AlternatingAccess {
			foundAlt = true
		}
	}
	if !foundAlt {
		t.Error("no alternating finding")
	}
}

func TestUntrackedAccessesIgnored(t *testing.T) {
	Reset()
	x := 5
	_ = *TraceR(&x) // never registered: must not panic or record
	r := Report()
	if len(r.Allocs) != 0 {
		t.Errorf("untracked access created an entry: %+v", r.Allocs)
	}
}

func TestRegisterPointerAndRelease(t *testing.T) {
	Reset()
	type blob struct{ a, b, c int64 }
	p := New[blob]("blob")
	*TraceW(&p.a) = 1
	Release(p)
	var sb strings.Builder
	TracePrint(&sb, ExpandAll(Arg(p, "p"))...)
	if !strings.Contains(sb.String(), "[freed]") {
		t.Errorf("released entry not marked freed:\n%s", sb.String())
	}
	// After the diagnostic, the freed entry is gone.
	if Allocations() != 0 {
		t.Errorf("allocations after diagnostic = %d", Allocations())
	}
}

func TestSetEnabled(t *testing.T) {
	Reset()
	xs := Slice[int8](4, "xs")
	SetEnabled(false)
	*TraceW(&xs[0]) = 1
	SetEnabled(true)
	r := Report()
	if r.Allocs[0].WriteC != 0 {
		t.Error("disabled tracer still recorded")
	}
}

func TestExpandAllRecursion(t *testing.T) {
	Reset()
	type inner struct{ v float64 }
	type outer struct {
		first  *inner
		second *inner
		scalar *int64
	}
	o := &outer{first: &inner{}, second: &inner{}, scalar: new(int64)}
	data := ExpandAll(Arg(o, "o"))
	names := map[string]bool{}
	for _, d := range data {
		names[d.Name] = true
	}
	for _, want := range []string{"o", "o->first", "o->second", "o->scalar"} {
		if !names[want] {
			t.Errorf("expansion missing %q; got %v", want, data)
		}
	}
}

func TestExpandAllStopsOnTypeRepetition(t *testing.T) {
	type node struct{ next *node }
	n3 := &node{}
	n2 := &node{next: n3}
	n1 := &node{next: n2}
	data := ExpandAll(Arg(n1, "n"))
	// The linked list stops after the first level (§III-B: "unless there
	// is type repetition, for example in a linked list").
	if len(data) != 1 {
		t.Errorf("expansion = %v, want just the head", data)
	}
}

func TestExpandAllNilAndNonPointer(t *testing.T) {
	if data := ExpandAll(Arg((*int)(nil), "nil"), Arg(42, "int")); len(data) != 0 {
		t.Errorf("nil/non-pointer expanded: %v", data)
	}
}

func TestExpandAllSliceField(t *testing.T) {
	type holder struct{ xs []int32 }
	h := &holder{xs: make([]int32, 10)}
	data := ExpandAll(Arg(h, "h"))
	found := false
	for _, d := range data {
		if d.Name == "h->xs" && d.ElemSize == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("slice field not expanded: %v", data)
	}
}

func TestTracePrintRelabels(t *testing.T) {
	Reset()
	xs := Slice[float64](8, "anonymous")
	type dom struct{ data *float64 }
	d := &dom{data: &xs[0]}
	*TraceW(&xs[0]) = 1
	var sb strings.Builder
	TracePrint(&sb, ExpandAll(Arg(d, "d"))...)
	if !strings.Contains(sb.String(), "d->data") {
		t.Errorf("entry not relabeled:\n%s", sb.String())
	}
}

func TestOverlappingRegisterIgnored(t *testing.T) {
	Reset()
	xs := Slice[int64](8, "first")
	Register(xs, "second") // same range: first wins
	if Allocations() != 1 {
		t.Errorf("allocations = %d, want 1", Allocations())
	}
}

func TestOnDeviceScopes(t *testing.T) {
	Reset()
	xs := Slice[int32](8, "xs")
	*TraceW(&xs[3]) = 7 // CPU write via the default role
	OnDevice(GPU, func(s *DeviceScope) {
		_ = *ScopeR(s, &xs[3]) // GPU read of a CPU value
	})
	r := Report()
	s := r.Allocs[0]
	if s.ReadCG != 1 {
		t.Errorf("C>G = %d, want 1", s.ReadCG)
	}
	if s.Alternating != 1 {
		t.Errorf("alternating = %d, want 1", s.Alternating)
	}
}

func TestScopeReadWriteKinds(t *testing.T) {
	Reset()
	xs := Slice[int64](4, "xs")
	OnDevice(GPU, func(s *DeviceScope) {
		*ScopeW(s, &xs[0]) = 2
		*ScopeRW(s, &xs[0]) += 3
	})
	if xs[0] != 5 {
		t.Fatalf("xs[0] = %d", xs[0])
	}
	r := Report()
	sum := r.Allocs[0]
	if sum.WriteG == 0 || sum.ReadGG == 0 {
		t.Errorf("scoped GPU accesses not recorded: %+v", sum)
	}
}

func TestNilScopeUsesDefaultDevice(t *testing.T) {
	Reset()
	xs := Slice[int64](2, "xs")
	defaultDev.Store(uint32(GPU))
	var s *DeviceScope
	*ScopeW(s, &xs[0]) = 1
	defaultDev.Store(uint32(CPU))
	r := Report()
	if r.Allocs[0].WriteG == 0 {
		t.Errorf("nil scope did not fall back to default device: %+v", r.Allocs[0])
	}
}

func TestFlushMakesBufferedAccessesVisible(t *testing.T) {
	Reset()
	xs := Slice[int64](4, "xs")
	*TraceW(&xs[0]) = 1
	Flush()
	var recorded bool
	rt.eng.Locked(func() {
		e := rt.pl.Table().Find(memsim.Addr(uintptr(unsafe.Pointer(&xs[0]))))
		recorded = e != nil && e.Shadow[0]&shadow.CPUWrote != 0
	})
	if !recorded {
		t.Error("flushed write not visible in shadow table")
	}
	Report()
}

func TestConcurrentAccessSafe(t *testing.T) {
	Reset()
	xs := Slice[int64](1024, "xs")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = *TraceR(&xs[(g*251+i)%1024])
			}
		}(g)
	}
	wg.Wait()
	r := Report()
	if r.Allocs[0].ReadCC == 0 {
		t.Error("concurrent reads not recorded")
	}
}

// runRolePhases drives three ordered phases over xs — CPU writes all
// elements, the GPU reads all and writes the evens, the CPU reads every
// third — with each phase either sequential or striped over `workers`
// goroutines playing the phase's role via a DeviceScope. Phases are
// separated by barriers, so the per-word access order is identical in
// both modes and the flushed shadow bytes must match exactly.
func runRolePhases(xs []int64, workers int) {
	phase := func(dev Device, body func(s *DeviceScope, i int), stride func(i int) bool) {
		if workers <= 1 {
			OnDevice(dev, func(s *DeviceScope) {
				for i := range xs {
					if stride(i) {
						body(s, i)
					}
				}
			})
			return
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				OnDevice(dev, func(s *DeviceScope) {
					for i := w; i < len(xs); i += workers {
						if stride(i) {
							body(s, i)
						}
					}
				})
			}(w)
		}
		wg.Wait()
	}
	all := func(int) bool { return true }
	phase(CPU, func(s *DeviceScope, i int) { *ScopeW(s, &xs[i]) = int64(i) }, all)
	phase(GPU, func(s *DeviceScope, i int) {
		_ = *ScopeR(s, &xs[i])
		if i%2 == 0 {
			*ScopeW(s, &xs[i]) = int64(2 * i)
		}
	}, all)
	phase(CPU, func(s *DeviceScope, i int) { _ = *ScopeR(s, &xs[i]) }, func(i int) bool { return i%3 == 0 })
}

// shadowBytesOf flushes and snapshots the shadow bytes of every entry.
func shadowBytesOf(t *testing.T) [][]byte {
	t.Helper()
	Flush()
	var out [][]byte
	rt.eng.Locked(func() {
		for _, e := range rt.pl.Table().Entries() {
			out = append(out, append([]byte(nil), e.Shadow...))
		}
	})
	return out
}

func TestParallelRolesMatchSequential(t *testing.T) {
	const n = 4096

	Reset()
	seq := Slice[int64](n, "xs")
	runRolePhases(seq, 1)
	want := shadowBytesOf(t)
	Report()

	Reset()
	par := Slice[int64](n, "xs")
	runRolePhases(par, 4)
	got := shadowBytesOf(t)
	Report()

	if len(want) != 1 || len(got) != 1 {
		t.Fatalf("entries: sequential %d, parallel %d", len(want), len(got))
	}
	for i := range want[0] {
		if want[0][i] != got[0][i] {
			t.Fatalf("shadow[%d]: sequential %#08b, parallel %#08b", i, want[0][i], got[0][i])
		}
	}
}

func TestUntrackedCounter(t *testing.T) {
	Reset()
	xs := Slice[int64](8, "xs")
	junk := new(int64) // never registered
	_ = *TraceR(&xs[0])
	_ = *TraceR(junk)
	*TraceW(junk) = 1
	if got := Untracked(); got != 2 {
		t.Errorf("untracked = %d, want 2", got)
	}
	// Scoped accesses to unregistered memory count too.
	OnDevice(GPU, func(s *DeviceScope) { _ = *ScopeR(s, junk) })
	if got := Untracked(); got != 3 {
		t.Errorf("untracked after scope = %d, want 3", got)
	}
	Reset()
	if got := Untracked(); got != 0 {
		t.Errorf("untracked after Reset = %d, want 0", got)
	}
}

func TestEnableHeatmap(t *testing.T) {
	Reset()
	hm := EnableHeatmap()
	xs := Slice[int64](8, "xs")
	_ = *TraceR(&xs[2])
	_ = *TraceR(&xs[2])
	_ = *TraceR(&xs[2])
	OnDevice(GPU, func(s *DeviceScope) { *ScopeW(s, &xs[2]) = 7 })
	Flush()
	heats := hm.Heats()
	if len(heats) != 1 {
		t.Fatalf("heats = %d, want 1", len(heats))
	}
	h := heats[0]
	if h.Label() != "xs" {
		t.Errorf("label = %q", h.Label())
	}
	// xs[2] is one int64 = words 4 and 5; 3 CPU reads + 1 GPU write each.
	if h.Counts[CPU][4] != 3 || h.Counts[CPU][5] != 3 {
		t.Errorf("CPU counts = %v", h.Counts[CPU])
	}
	if h.Counts[GPU][4] != 1 || h.Counts[GPU][5] != 1 {
		t.Errorf("GPU counts = %v", h.Counts[GPU])
	}
	if h.Totals[CPU] != 6 || h.Totals[GPU] != 2 {
		t.Errorf("totals = %v", h.Totals)
	}
	Report()
}

// TestResetDetachesAnalysisSinks: Reset detaches the EnableHeatmap and
// EnablePatterns sinks. They resolve batches against the table Reset
// discards, which still holds the first registration of xs, so a sink
// left attached would count the writes made after Reset.
func TestResetDetachesAnalysisSinks(t *testing.T) {
	Reset()
	defer Reset()
	xs := Slice[float64](64, "xs")
	hm := EnableHeatmap()
	ps := EnablePatterns()
	Reset()
	Register(xs, "xs")
	for i := range xs {
		*TraceW(&xs[i]) = 1
	}
	Flush()
	if rows := ps.Rows(); len(rows) != 0 {
		t.Errorf("pattern sink kept %d streams after Reset", len(rows))
	}
	for _, h := range hm.Heats() {
		if h.Totals != [machine.NumDevices]uint64{} {
			t.Errorf("heat map counted %v word accesses to %s after Reset", h.Totals, h.Label())
		}
	}
}

// TestEnableStreamTwice attaches two stream sinks and replays each: both
// must carry the allocation's life-cycle frames, not only the sink
// attached last, so the two replayed reports list the allocation and
// agree.
func TestEnableStreamTwice(t *testing.T) {
	Reset()
	// Streams outlive Reset; a fresh runtime detaches the closed sinks
	// from the tests that follow.
	t.Cleanup(func() { rt = newRuntime() })
	var bufs [2]bytes.Buffer
	var sinks [2]*wire.StreamSink
	for i := range sinks {
		ss, err := wire.NewStreamSink(&bufs[i], wire.Config{Hello: wire.Hello{Tenant: "t", Process: fmt.Sprintf("p%d", i)}})
		if err != nil {
			t.Fatal(err)
		}
		EnableStream(ss)
		sinks[i] = ss
	}
	xs := Slice[float64](64, "xs")
	for i := range xs {
		*TraceW(&xs[i]) = 1
	}
	Release(xs)
	Flush()
	var reports [2]diag.Report
	for i, ss := range sinks {
		reports[i] = replay(t, ss, &bufs[i])
	}
	for i, r := range reports {
		if len(r.Allocs) != 1 || r.Allocs[0].Label != "xs" || !r.Allocs[0].Freed || r.Allocs[0].WriteC != 128 {
			t.Errorf("stream %d replays allocations %+v, want xs freed with 128 CPU-written words", i, r.Allocs)
		}
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("replayed reports differ:\n%+v\n%+v", reports[0], reports[1])
	}
}

// replay closes ss, whose stream went to buf, and returns the report of
// a pipeline the stream is replayed into.
func replay(t *testing.T, ss *wire.StreamSink, buf *bytes.Buffer) diag.Report {
	t.Helper()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	pl := pipeline.New()
	err := wire.ReadStream(bytes.NewReader(buf.Bytes()), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return pl.Handler(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl.Report("", machine.IntelPascal())
}

// TestRelabelReachesStream: a diagnostic's relabel reaches an attached
// stream, so the replayed report names the allocation as the local one
// does.
func TestRelabelReachesStream(t *testing.T) {
	Reset()
	t.Cleanup(func() { rt = newRuntime() })
	var buf bytes.Buffer
	ss, err := wire.NewStreamSink(&buf, wire.Config{Hello: wire.Hello{Tenant: "t", Process: "relabel"}})
	if err != nil {
		t.Fatal(err)
	}
	EnableStream(ss)
	xs := Slice[float32](64, "xs")
	write := func() {
		for i := range xs {
			*TraceW(&xs[i]) = 1
		}
	}
	write()
	TracePrint(io.Discard, ExpandAll(Arg(&xs[0], "renamed"))...)
	write()
	reports := map[string]diag.Report{"local": Report(), "replayed": replay(t, ss, &buf)}
	for side, r := range reports {
		if len(r.Allocs) != 1 || r.Allocs[0].Label != "renamed" {
			t.Errorf("%s report lists %+v, want one allocation labeled renamed", side, r.Allocs)
		}
	}
}

// TestPatternDigestsPerAllocation: registrations made without a stream
// attached still get ids of their own. diag.SummarizePatterns keys each
// allocation's digest by id, so two allocations sharing one would both
// report the class of whichever stream the digest picked.
func TestPatternDigestsPerAllocation(t *testing.T) {
	Reset()
	defer Reset()
	seq := Slice[float64](4096, "seq")
	rnd := Slice[float64](4096, "rnd")
	ps := EnablePatterns()
	OnDevice(GPU, func(s *DeviceScope) {
		for i := range seq {
			_ = *ScopeR(s, &seq[i])
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 8192; i++ {
			_ = *ScopeR(s, &rnd[r.Intn(len(rnd))])
		}
	})
	r := Report()
	r.Patterns = diag.SummarizePatterns(ps, machine.IntelPascal().CoalescePenaltyPct)
	var b bytes.Buffer
	if err := r.JSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Allocs []struct {
			Label   string `json:"label"`
			Pattern struct {
				Class string `json:"class"`
			} `json:"pattern"`
		} `json:"allocations"`
		Patterns struct {
			Streams []struct {
				Alloc string `json:"alloc"`
				Class string `json:"class"`
			} `json:"streams"`
		} `json:"patterns"`
	}
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"seq": "sequential", "rnd": "random"}
	got := map[string]string{}
	for _, a := range decoded.Allocs {
		got[a.Label] = a.Pattern.Class
	}
	rows := map[string]string{}
	for _, row := range decoded.Patterns.Streams {
		rows[row.Alloc] = row.Class
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("stream classes %v, want %v", rows, want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-allocation pattern digests %v, want %v", got, want)
	}
}
