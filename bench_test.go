// Top-level benchmarks: one per table and figure of the paper's
// evaluation (§IV). Each benchmark regenerates its experiment and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The wider sweeps behind the figures
// live in internal/bench and cmd/xplbench.
package xplacer_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xplacer/internal/agg"
	"xplacer/internal/bench"
	"xplacer/internal/cuda"
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/trace"
	"xplacer/xplrt"
)

// reportSpeedups attaches each row's factor as a custom metric.
func reportSpeedups(b *testing.B, rows []bench.Speedup, filter func(bench.Speedup) bool) {
	for _, r := range rows {
		if filter != nil && !filter(r) {
			continue
		}
		name := strings.NewReplacer(" ", "", "+", "", "=", "").Replace(
			r.Platform + "_" + r.Label + "_" + r.Variant + "_speedup")
		b.ReportMetric(r.Factor(), name)
	}
}

// BenchmarkFig4LuleshDiagnostic regenerates the Fig. 4 diagnostic output.
func BenchmarkFig4LuleshDiagnostic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5LuleshAccessMaps regenerates the Fig. 5 domain-object maps.
func BenchmarkFig5LuleshAccessMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6LuleshSpeedup regenerates a reduced Fig. 6 sweep and
// reports the remedies' speedups on Intel+Pascal and IBM+Volta.
func BenchmarkFig6LuleshSpeedup(b *testing.B) {
	opt := bench.Fig6Options{
		Sizes:     []int{8},
		Timesteps: 12,
		Platforms: []*machine.Platform{machine.IntelPascal(), machine.IBMVolta()},
	}
	var rows []bench.Speedup
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig6(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows, nil)
}

// BenchmarkFig7SmithWatermanBoundary regenerates the Fig. 7 maps.
func BenchmarkFig7SmithWatermanBoundary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig7(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8SmithWatermanIteration regenerates the Fig. 8 maps.
func BenchmarkFig8SmithWatermanIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig8(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9SmithWaterman regenerates a reduced Fig. 9 sweep: the
// rotated layout vs the baseline, in memory and over-subscribed (4 KiB
// pages keep the over-subscription meaningful at these reduced sizes).
func BenchmarkFig9SmithWaterman(b *testing.B) {
	pascal, ibm := machine.IntelPascal().Clone(), machine.IBMVolta().Clone()
	pascal.PageSize, ibm.PageSize = 4096, 4096
	opt := bench.Fig9Options{
		Sizes:     []int{64, 96, 100},
		Platforms: []*machine.Platform{pascal, ibm},
	}
	var rows []bench.Speedup
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows, nil)
}

// BenchmarkFig10PathfinderMaps regenerates the Fig. 10 maps.
func BenchmarkFig10PathfinderMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Pathfinder regenerates a reduced Fig. 11 sweep: the
// transfer-overlap optimization on both interconnects.
func BenchmarkFig11Pathfinder(b *testing.B) {
	opt := bench.Fig11Options{
		Cols:      4096,
		Rows:      []int{600},
		Pyramid:   20,
		Platforms: []*machine.Platform{machine.IntelPascal(), machine.IBMVolta()},
	}
	var rows []bench.Speedup
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig11(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedups(b, rows, nil)
}

// BenchmarkTable2RodiniaFindings regenerates the Table II analysis of all
// six Rodinia benchmarks.
func BenchmarkTable2RodiniaFindings(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0
	for _, r := range rows {
		total += len(r.Findings)
	}
	b.ReportMetric(float64(total), "findings")
}

// reportHotPath runs the buffered recorder b.N times and reports its best
// (minimum) per-access cost — the standard noise-robust estimate.
func reportHotPath(b *testing.B, goroutines, total int) {
	sharded := math.Inf(1)
	for i := 0; i < b.N; i++ {
		sharded = math.Min(sharded, bench.TraceHotPath(goroutines, total))
	}
	b.ReportMetric(sharded, "sharded_ns_per_access")
}

// BenchmarkTraceOverheadParallel measures the buffered recording hot path
// at 8 concurrent goroutines.
func BenchmarkTraceOverheadParallel(b *testing.B) {
	reportHotPath(b, 8, 1<<20)
}

// BenchmarkTraceOverheadSingle measures the buffered recording hot path
// on one goroutine.
func BenchmarkTraceOverheadSingle(b *testing.B) {
	reportHotPath(b, 1, 1<<20)
}

// BenchmarkTraceOverheadPatternSink compares the recording hot path with
// and without the access-pattern classifier sink attached. The sink adds
// nothing to the buffered append; its cost is paid at drain time — one
// delta fold per scalar record, O(1) per RLE range record. The
// contiguous ScopeR sweep here coalesces into run records in the scope's
// Buffer, so it is not the sink's all-scalar worst case; that case is
// BenchmarkSinkApply's scalar batches. Acceptance bar: overhead_x < 2.
func BenchmarkTraceOverheadPatternSink(b *testing.B) {
	const total = 1 << 20
	bare, classified := math.Inf(1), math.Inf(1)
	for i := 0; i < b.N; i++ {
		bare = math.Min(bare, bench.TraceHotPath(1, total))
		classified = math.Min(classified, bench.TraceHotPathPatterns(1, total))
	}
	b.ReportMetric(bare, "bare_ns_per_access")
	b.ReportMetric(classified, "pattern_ns_per_access")
	if bare > 0 {
		b.ReportMetric(classified/bare, "overhead_x")
	}
}

// BenchmarkTraceRangeSweep measures the run-length-encoded range path
// against the scalar path on the same sweep workload, so the per-access
// figure is the amortized cost of covering one element. Contiguous and
// Strided go through xplrt device scopes and the single-owner Buffer:
// one ScopeRange call replaces a block's worth of ScopeR calls. SlotRows
// goes through trace.Tracer and the engine's per-P slots with the short
// 2-4-line rows the Rodinia kernels record, each of which flushes the
// engine at record time. The acceptance bar for the contiguous shape is
// range_speedup_x >= 3 over the scalar buffered path.
func BenchmarkTraceRangeSweep(b *testing.B) {
	const total = 1 << 20
	for _, c := range []struct {
		name          string
		ranged, plain func() float64
	}{
		{"Contiguous",
			func() float64 { return bench.RangeSweepHotPath(1, total, 1) },
			func() float64 { return bench.TraceHotPath(1, total) }},
		{"Strided",
			func() float64 { return bench.RangeSweepHotPath(1, total, 4) },
			func() float64 { return bench.TraceHotPath(1, total) }},
		{"SlotRows",
			func() float64 { return bench.TracerRowHotPath(total, false) },
			func() float64 { return bench.TracerRowHotPath(total, true) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ranged, scalar := math.Inf(1), math.Inf(1)
			for i := 0; i < b.N; i++ {
				ranged = math.Min(ranged, c.ranged())
				scalar = math.Min(scalar, c.plain())
			}
			b.ReportMetric(ranged, "range_ns_per_access")
			b.ReportMetric(scalar, "scalar_ns_per_access")
			if ranged > 0 {
				b.ReportMetric(scalar/ranged, "range_speedup_x")
			}
		})
	}
}

// BenchmarkShadowBulkApply measures the drain-side shadow application:
// one recorded access spanning a 4096-word block (applied word-at-a-time
// over 8 shadow bytes per step) against 4096 single-word accesses through
// the table-driven per-byte update. The bulk path is what grouped batch
// application rides on, so its advantage here bounds what the drain can
// save on contiguous traffic.
func BenchmarkShadowBulkApply(b *testing.B) {
	const words, total = 4096, 1 << 22
	bulk, scalar := math.Inf(1), math.Inf(1)
	for i := 0; i < b.N; i++ {
		bn, sn := bench.BulkApplyHotPath(words, total)
		bulk = math.Min(bulk, bn)
		scalar = math.Min(scalar, sn)
	}
	b.ReportMetric(bulk, "bulk_ns_per_word")
	b.ReportMetric(scalar, "scalar_ns_per_word")
	if bulk > 0 {
		b.ReportMetric(scalar/bulk, "bulk_speedup_x")
	}
}

// BenchmarkSlotRecord measures the engine's slot path as instrumented
// plain Go reaches it: scope-less xplrt.TraceR/TraceW calls on one
// goroutine, drains into the shadow table included. Interleaved is
// LULESH's shape, x[i] = y[i] + z[i] over three arrays, so consecutive
// accesses alternate between allocations; Contiguous is one write sweep,
// the shape of an initialization loop, whose accesses coalesce into run
// records. The metric is ns per traced access.
func BenchmarkSlotRecord(b *testing.B) {
	const n = 1 << 16
	xplrt.Reset()
	defer xplrt.Reset()
	x, y, z := xplrt.Slice[float64](n, "x"), xplrt.Slice[float64](n, "y"), xplrt.Slice[float64](n, "z")
	b.Run("Interleaved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			*xplrt.TraceW(&x[j]) = *xplrt.TraceR(&y[j]) + *xplrt.TraceR(&z[j])
		}
		xplrt.Flush()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3*b.N), "ns_per_access")
	})
	b.Run("Contiguous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			*xplrt.TraceW(&x[i&(n-1)]) = 1
		}
		xplrt.Flush()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns_per_access")
	})
}

// BenchmarkTracerRecord measures trace.Tracer's two recording paths on
// LULESH's interleaved shape, x[i] = y[i] + z[i] over three managed
// arrays, drains into the shadow table included. Slot records through
// Tracer.TraceAccess, the engine's shared per-P slots that concurrent
// callers use; Sequential through the view a cuda.Context records
// through, one single-owner slot with no lock. Both are called as a
// cuda.Tracer, as the simulator calls them. The metric is ns per traced
// access.
func BenchmarkTracerRecord(b *testing.B) {
	const n = 1 << 16
	for _, c := range []struct {
		name string
		view func(*trace.Tracer) cuda.Tracer
	}{
		{"Slot", func(t *trace.Tracer) cuda.Tracer { return t }},
		{"Sequential", (*trace.Tracer).Sequential},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := trace.New()
			sp := memsim.NewSpace(4096)
			var arrays [3]*memsim.Alloc
			for i, label := range [...]string{"x", "y", "z"} {
				a, err := sp.Alloc(n*8, memsim.Managed, label)
				if err != nil {
					b.Fatal(err)
				}
				tr.TraceAlloc(a)
				arrays[i] = a
			}
			x, y, z := arrays[0], arrays[1], arrays[2]
			v := c.view(tr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := memsim.Addr(8 * (i & (n - 1)))
				v.TraceAccess(machine.GPU, y, y.Base+off, 8, memsim.Read)
				v.TraceAccess(machine.GPU, z, z.Base+off, 8, memsim.Read)
				v.TraceAccess(machine.GPU, x, x.Base+off, 8, memsim.Write)
			}
			tr.Flush()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3*b.N), "ns_per_access")
		})
	}
}

// simAccessSink keeps BenchmarkSimAccess's loaded values live.
var simAccessSink float64

// BenchmarkSimAccess measures the simulator's own per-access cost —
// cuda.Exec through the UM page state machine, untraced — which the
// perfbench overhead_x ratio divides out, so a slower simulator shows up
// there only as a lower ratio. Host is memsim.Float64View stores on the
// host Exec; Kernel is loads inside one kernel launch. Both sweep one
// managed allocation of eight 64 KiB pages that a warm-up pass has
// already placed where the accesses run. The metric is ns per access.
func BenchmarkSimAccess(b *testing.B) {
	const n = 1 << 16
	ctx := cuda.MustContext(machine.IntelPascal())
	a, err := ctx.MallocManaged(n*8, "x")
	if err != nil {
		b.Fatal(err)
	}
	v := memsim.Float64s(a)
	b.Run("Host", func(b *testing.B) {
		host := ctx.Host()
		for i := int64(0); i < n; i++ {
			v.Store(host, i, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Store(host, int64(i&(n-1)), 1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns_per_access")
	})
	b.Run("Kernel", func(b *testing.B) {
		var sum float64
		ctx.LaunchSync("load", func(e *cuda.Exec) {
			for i := int64(0); i < n; i++ {
				sum += v.Load(e, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += v.Load(e, int64(i&(n-1)))
			}
			b.StopTimer()
		})
		simAccessSink = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns_per_access")
	})
}

// BenchmarkSinkApply measures the drain side of the three table-backed
// sinks — record.TableSink, record.HeatmapSink and pattern.Sink — each
// applying one fixed 1024-record batch, the size of a full slot, over 16
// allocations of 16 KiB. Interleaved is LULESH's shape: 8-byte scalars
// alternating between three allocations (x[i] = y[i] + z[i]). Runs is
// the Rodinia shape: 16-element float32 row runs cycling through all 16
// allocations. Random is seeded random 8-byte scalars over all 16, where
// the lookup hint rarely holds. Sinks are built outside the timer; the
// metric is ns per element access (a run counts its elements).
func BenchmarkSinkApply(b *testing.B) {
	const allocs, size, records = 16, 16 << 10, 1024
	table := shadow.NewTable()
	base := func(i int) memsim.Addr { return memsim.Addr(0x1000000 + i*0x10000) }
	for i := 0; i < allocs; i++ {
		if _, err := table.InsertRange(base(i), size, fmt.Sprintf("a%d", i), memsim.Managed, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	var interleaved, runs, random []shadow.Access
	for i := 0; len(interleaved) < records; i++ {
		off := memsim.Addr(8 * i)
		interleaved = append(interleaved,
			shadow.Access{Dev: machine.CPU, Kind: memsim.Read, Size: 8, Addr: base(1) + off},
			shadow.Access{Dev: machine.CPU, Kind: memsim.Read, Size: 8, Addr: base(2) + off},
			shadow.Access{Dev: machine.CPU, Kind: memsim.Write, Size: 8, Addr: base(0) + off})
	}
	for i := 0; i < records; i++ {
		runs = append(runs, shadow.Access{Dev: machine.GPU, Kind: memsim.AccessKind(i % 2), Size: 4,
			Addr: base(i%allocs) + memsim.Addr(64*(i/allocs)), Count: 16, Stride: 4})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < records; i++ {
		random = append(random, shadow.Access{Dev: machine.GPU, Kind: memsim.AccessKind(rng.Intn(2)), Size: 8,
			Addr: base(rng.Intn(allocs)) + memsim.Addr(8*rng.Intn(size/8))})
	}
	batches := []struct {
		name  string
		batch []shadow.Access
	}{{"Interleaved", interleaved[:records]}, {"Runs", runs}, {"Random", random}}
	sinks := []struct {
		name string
		new  func() record.Sink
	}{
		{"Table", func() record.Sink { return record.NewTableSink(table) }},
		{"Heatmap", func() record.Sink { return record.NewHeatmapSink(table) }},
		{"Pattern", func() record.Sink { return pattern.NewSink(table) }},
	}
	for _, sk := range sinks {
		for _, bt := range batches {
			b.Run(sk.name+"/"+bt.name, func(b *testing.B) {
				var elems int64
				for i := range bt.batch {
					elems += bt.batch[i].Elems()
				}
				sink := sk.new()
				// The sinks ignore the cursor; a non-nil one keeps this
				// benchmark runnable on older trees for paired comparisons.
				cur := &record.Cursor{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink.Apply(bt.batch, cur)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(elems)), "ns_per_elem")
			})
		}
	}
}

// analyzeSink keeps BenchmarkDiagAnalyze's result live.
var analyzeSink diag.Report

// BenchmarkDiagAnalyze measures one diagnostic's analysis — per-entry
// summaries and findings, diag.Analyze — over 256 allocations of 4096
// words (2^20 shadow words) holding a seeded mix of shadow states. The
// metric is ns per shadow word.
func BenchmarkDiagAnalyze(b *testing.B) {
	const allocs, words = 256, 4096
	rng := rand.New(rand.NewSource(1))
	table := shadow.NewTable()
	for i := 0; i < allocs; i++ {
		kind := memsim.Managed
		if i%4 == 3 {
			kind = memsim.DeviceOnly
		}
		e, err := table.InsertRange(memsim.Addr(0x1000000+i*2*words*shadow.WordSize), words*shadow.WordSize, fmt.Sprintf("a%d", i), kind, "bench")
		if err != nil {
			b.Fatal(err)
		}
		// Untouched stretches, single-device stretches and mixed words.
		for w := range e.Shadow {
			switch rng.Intn(4) {
			case 0:
			case 1:
				e.Shadow[w] = shadow.GPUWrote | shadow.LastWriterGPU | shadow.ReadGG
			default:
				e.Shadow[w] = byte(rng.Intn(128))
			}
		}
		e.EverTouched = true
	}
	opt := detect.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeSink = diag.Analyze(table.Entries(), "", opt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*allocs*words), "ns_per_word")
}

// BenchmarkWireIngest measures the fleet aggregator's decode-and-apply
// throughput on Spatter-mix streams: 8 pre-encoded wire streams
// (distinct processes, so none waits for another's lock) ingested
// concurrently into one Aggregator, each applied on its own goroutine,
// exactly as xplagg's TCP path does. Three access mixes cover the apply paths — Range (uniform
// sweeps coalesced into long RLE records: the bulk shadow path), Scalar
// (random indices, one record per element: the per-word path), and
// Gather (gather-local, scalar-heavy with short local runs) — each at
// GOMAXPROCS 1, 2, and 4. The headline metric is wire access records
// applied per second; the CI floor (Scalar/Cores1) is records_per_sec
// >= 10M. The Cores2 and Cores4 rows are reported, not gated: a
// GOMAXPROCS above the machine's core count measures no scaling, so no
// ratio between the rows is claimed from a machine with fewer cores.
func BenchmarkWireIngest(b *testing.B) {
	const (
		nStreams = 8
		elems    = 1 << 18 // element accesses per stream
	)
	mixes := []struct {
		name string
		kind bench.SpatterKind
	}{
		{"Range", bench.SpatterUniform},
		{"Scalar", bench.SpatterRandom},
		{"Gather", bench.SpatterGatherLocal},
	}
	for _, m := range mixes {
		streams := make([][]byte, nStreams)
		var total int64
		for i := range streams {
			var n int64
			streams[i], n = bench.SpatterWireStream(bench.WireMixConfig{
				Spatter: bench.SpatterConfig{
					Kind: m.kind, N: 1 << 16, Count: elems, Seed: int64(i + 1),
				},
				Tenant: "bench", Process: fmt.Sprintf("p%02d", i),
			})
			total += n
		}
		for _, cores := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/Cores%d", m.name, cores), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					g := agg.New()
					var wg sync.WaitGroup
					for _, s := range streams {
						wg.Add(1)
						go func(s []byte) {
							defer wg.Done()
							if err := g.Ingest(bytes.NewReader(s)); err != nil {
								b.Error(err)
							}
						}(s)
					}
					wg.Wait() // each Ingest returns once its stream is applied
				}
				b.StopTimer()
				records := float64(b.N) * float64(total)
				b.ReportMetric(records/b.Elapsed().Seconds(), "records_per_sec")
				// One RLE record covers many elements, so the Range mix's
				// real work rate only shows in element terms.
				covered := float64(b.N) * float64(nStreams) * float64(elems)
				b.ReportMetric(covered/b.Elapsed().Seconds(), "elems_per_sec")
			})
		}
	}
}

// BenchmarkTable3Overhead measures the instrumentation overhead on one
// representative workload and the per-access microbenchmark ratio.
func BenchmarkTable3Overhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(bench.DefaultTable3Workloads()[:1])
		if err != nil {
			b.Fatal(err)
		}
		overhead = rows[0].Overhead()
	}
	b.ReportMetric(overhead, "wallclock_overhead_x")
	_, _, ratio := bench.PerAccessOverhead()
	b.ReportMetric(ratio, "per_access_overhead_x")
}
