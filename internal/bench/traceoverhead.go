package bench

import (
	"fmt"
	"sync"
	"time"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
	"xplacer/internal/trace"
	"xplacer/xplrt"
)

// This file measures the recording hot path itself: xplrt's buffered
// device-scope path. The workload is a few hundred live allocations (past
// the SMT's linear cutoff, so every unbatched Find is a binary search)
// with each goroutine streaming sequentially through allocations, the
// access pattern kernels actually produce. The buffered path replaces
// per-access lock/search pairs with a local append plus a per-batch
// last-entry cache hit.

const (
	hotPathAllocs = 256  // past the SMT's linear cutoff: binary search per Find
	hotPathWords  = 2048 // float64 elements per allocation (16 KiB)
)

// hotPathSlices registers the shared slice set with xplrt.
func hotPathSlices() [][]float64 {
	slices := make([][]float64, hotPathAllocs)
	for i := range slices {
		slices[i] = xplrt.Slice[float64](hotPathWords, fmt.Sprintf("a%d", i))
	}
	return slices
}

// TraceHotPath measures xplrt's scope-buffered recorded-access throughput:
// ns per access over `total` accesses from `goroutines` concurrent GPU-role
// workers, including the final flush.
func TraceHotPath(goroutines, total int) float64 {
	return traceHotPath(goroutines, total, false)
}

// TraceHotPathPatterns is TraceHotPath with an access-pattern classifier
// sink attached. The sink folds whole drained batches — it adds no
// per-access work — so this figure should stay within noise of the bare
// path; BenchmarkTraceOverheadPatternSink reports the ratio.
func TraceHotPathPatterns(goroutines, total int) float64 {
	return traceHotPath(goroutines, total, true)
}

func traceHotPath(goroutines, total int, patterns bool) float64 {
	if goroutines < 1 {
		goroutines = 1
	}
	xplrt.Reset()
	if patterns {
		xplrt.EnablePatterns()
	}
	slices := hotPathSlices()
	per := total / goroutines
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xplrt.OnDevice(xplrt.GPU, func(s *xplrt.DeviceScope) {
				block := g % len(slices)
				for i := 0; i < per; block = (block + 1) % len(slices) {
					xs := slices[block]
					n := hotPathWords
					if per-i < n {
						n = per - i
					}
					for j := 0; j < n; j++ {
						_ = *xplrt.ScopeR(s, &xs[j])
					}
					i += n
				}
			})
		}(g)
	}
	wg.Wait()
	xplrt.Flush()
	elapsed := time.Since(start)
	xplrt.Reset()
	return float64(elapsed.Nanoseconds()) / float64(per*goroutines)
}

// RangeSweepHotPath measures the run-length-encoded range path on the
// same workload and memory layout as TraceHotPath: each block sweep that
// the scalar path records as thousands of ScopeR calls is recorded as a
// single ScopeRange call. stride selects the access shape — 1 traces
// every word with the contiguous entry point, larger values trace every
// stride-th word with the strided one. The returned figure is ns per
// traced access (elements the range covers), directly comparable to
// TraceHotPath's per-access cost.
func RangeSweepHotPath(goroutines, total, stride int) float64 {
	if goroutines < 1 {
		goroutines = 1
	}
	if stride < 1 {
		stride = 1
	}
	xplrt.Reset()
	slices := hotPathSlices()
	perBlock := (hotPathWords + stride - 1) / stride
	per := total / goroutines
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xplrt.OnDevice(xplrt.GPU, func(s *xplrt.DeviceScope) {
				block := g % len(slices)
				for i := 0; i < per; block = (block + 1) % len(slices) {
					xs := slices[block]
					n := perBlock
					if per-i < n {
						n = per - i
					}
					if stride == 1 {
						xplrt.ScopeRange(s, xplrt.Read, xs[:n])
					} else {
						xplrt.ScopeRange(s, xplrt.Read, xs[:(n-1)*stride+1], xplrt.Stride(stride))
					}
					i += n
				}
			})
		}(g)
	}
	wg.Wait()
	xplrt.Flush()
	elapsed := time.Since(start)
	xplrt.Reset()
	return float64(elapsed.Nanoseconds()) / float64(per*goroutines)
}

// TracerRowHotPath measures the simulated tracer's range cost on the
// shape the range-converted Rodinia kernels issue:
// trace.Tracer.TraceAccessRange, the tracer's single-owner slot, over
// short float32 rows of 24, 40 and 56 elements, each row read and then
// written. Rows start 224 bytes apart, so every record spans 2-4 cache
// lines and drains the slot at record time. With scalar set
// the same rows go through TraceAccess element by element instead. The
// returned figure is ns per covered element, including the final flush.
func TracerRowHotPath(total int, scalar bool) float64 {
	const (
		allocs   = 8
		rows     = 64
		rowBytes = 56 * 4
	)
	lens := [...]int{24, 40, 56}
	tr := trace.New()
	as := make([]*memsim.Alloc, allocs)
	for i := range as {
		as[i] = &memsim.Alloc{ID: i, Base: memsim.Addr(0x100000 * (i + 1)), Size: rows * rowBytes, Kind: memsim.Managed}
		tr.TraceAlloc(as[i])
	}
	start := time.Now()
	done := 0
	for r := 0; done < total; r++ {
		a, n := as[r%allocs], lens[r%len(lens)]
		row := a.Base + memsim.Addr((r/allocs)%rows*rowBytes)
		for _, kind := range [...]memsim.AccessKind{memsim.Read, memsim.Write} {
			if !scalar {
				tr.TraceAccessRange(machine.GPU, a, row, n, 4, 4, kind)
				continue
			}
			for k := 0; k < n; k++ {
				tr.TraceAccess(machine.GPU, a, row+memsim.Addr(4*k), 4, kind)
			}
		}
		done += 2 * n
	}
	tr.Flush()
	return float64(time.Since(start).Nanoseconds()) / float64(done)
}

// BulkApplyHotPath measures the drain-side shadow application: ns per
// covered word when one recorded access spans a whole block of words (the
// word-at-a-time bulk path over 8 shadow bytes per step) against one
// single-word access per word (the table-driven scalar path). Both run
// against the same live table, so the figure isolates the shadow-byte
// update itself — lookup and batching costs are identical.
func BulkApplyHotPath(words, total int) (bulkNs, scalarNs float64) {
	if words < 1 {
		words = 1
	}
	table := shadow.NewTable()
	base := memsim.Addr(0x100000)
	if _, err := table.InsertRange(base, int64(words)*4, "bulk", memsim.Managed, "bench"); err != nil {
		panic(err)
	}
	iters := total / words
	if iters < 1 {
		iters = 1
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		table.Record(machine.GPU, base, int64(words)*4, memsim.Read)
	}
	bulkNs = float64(time.Since(start).Nanoseconds()) / float64(iters*words)
	start = time.Now()
	for i := 0; i < iters; i++ {
		for w := 0; w < words; w++ {
			table.Record(machine.GPU, base+memsim.Addr(w*4), 4, memsim.Read)
		}
	}
	scalarNs = float64(time.Since(start).Nanoseconds()) / float64(iters*words)
	return bulkNs, scalarNs
}
