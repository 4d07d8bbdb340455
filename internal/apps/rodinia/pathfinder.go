// Package rodinia implements the six Rodinia CUDA benchmarks the paper
// analyzes in §IV-C (Table II): Backprop, CFD, Gaussian, LUD, NN, and
// Pathfinder — each with the allocation and transfer structure XPlacer
// diagnoses, plus the optimized variants derived from those diagnostics.
package rodinia

import (
	"fmt"
	"io"
	"math/rand"

	"xplacer/internal/core"
	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

// PathfinderConfig parameterizes the Pathfinder grid benchmark: find the
// cheapest bottom-row cell reachable from the top row moving down and at
// most one column sideways per step.
type PathfinderConfig struct {
	// Cols and Rows size the wall grid; Pyramid is the number of rows one
	// kernel invocation processes (the benchmark's pyramid_height).
	Cols, Rows, Pyramid int
	// Overlap selects the optimized variant: gpuWall is transferred in
	// per-iteration sections, each copy overlapped with the previous
	// iteration's kernel (§IV-C "Optimizing Pathfinder", Fig. 11).
	Overlap bool
	// Seed makes the wall reproducible.
	Seed int64
	// DiagEvery > 0 emits a diagnostic every DiagEvery iterations
	// (Fig. 10's per-iteration access maps of gpuWall).
	DiagEvery int
	// DiagOut receives diagnostic output; nil suppresses printing.
	DiagOut io.Writer
	// StopAfter > 0 stops the run after that many kernel iterations
	// (partial run for access-map figures; MinPath is then zero).
	StopAfter int
	// ResetBefore > 0 resets the shadow memory right before the given
	// iteration, isolating its accesses (paper Fig. 10's per-iteration
	// maps).
	ResetBefore int
}

// PathfinderResult is the outcome of a run.
type PathfinderResult struct {
	// MinPath is the cheapest path cost.
	MinPath int32
	// Iterations is the number of kernel invocations.
	Iterations int
}

// PathfinderWall generates the wall deterministically (row-major).
func PathfinderWall(rows, cols int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]int32, rows*cols)
	for i := range w {
		w[i] = int32(rng.Intn(10))
	}
	return w
}

// PathfinderReference computes the minimum path cost with a plain Go
// dynamic program, for correctness checks.
func PathfinderReference(wall []int32, rows, cols int) int32 {
	cur := make([]int32, cols)
	next := make([]int32, cols)
	copy(cur, wall[:cols])
	for r := 1; r < rows; r++ {
		for j := 0; j < cols; j++ {
			best := cur[j]
			if j > 0 && cur[j-1] < best {
				best = cur[j-1]
			}
			if j < cols-1 && cur[j+1] < best {
				best = cur[j+1]
			}
			next[j] = wall[r*cols+j] + best
		}
		cur, next = next, cur
	}
	best := cur[0]
	for _, v := range cur[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

func int32sToBytes(xs []int32) []byte {
	b := make([]byte, len(xs)*4)
	for i, x := range xs {
		u := uint32(x)
		b[i*4+0] = byte(u)
		b[i*4+1] = byte(u >> 8)
		b[i*4+2] = byte(u >> 16)
		b[i*4+3] = byte(u >> 24)
	}
	return b
}

// RunPathfinder executes the benchmark on the session's simulated machine.
func RunPathfinder(s *core.Session, cfg PathfinderConfig) (PathfinderResult, error) {
	if cfg.Cols <= 1 || cfg.Rows <= 1 || cfg.Pyramid <= 0 {
		return PathfinderResult{}, fmt.Errorf("rodinia: bad pathfinder config %+v", cfg)
	}
	ctx := s.Ctx
	cols, rows := cfg.Cols, cfg.Rows
	wall := PathfinderWall(rows, cols, cfg.Seed)

	// Result ping-pong buffers, seeded with the wall's first row.
	resA, err := ctx.Malloc(int64(cols)*4, "gpuResult[0]")
	if err != nil {
		return PathfinderResult{}, err
	}
	resB, err := ctx.Malloc(int64(cols)*4, "gpuResult[1]")
	if err != nil {
		return PathfinderResult{}, err
	}
	ctx.MemcpyH2D(resA, 0, int32sToBytes(wall[:cols]))

	src, dst := memsim.Int32s(resA), memsim.Int32s(resB)

	// One kernel processes `chunk` rows of the wall reading from the wall
	// view at the given row offset.
	kernel := func(wallView memsim.Int32View, rowBase, chunk int) func(*cuda.Exec) {
		return func(e *cuda.Exec) {
			q := e.NoTrace()
			for r := 0; r < chunk; r++ {
				// Each row's taps are contiguous sweeps — trace them as
				// compact ranges (one per syntactic access site, with the
				// boundary cells trimmed exactly as the loop skips them)
				// and price the cells through the untraced view, keeping
				// the cost model's per-element order intact.
				e.TraceRange(memsim.Read, src.Alloc(), 0, cols, 4, 4)
				e.TraceRange(memsim.Read, src.Alloc(), 0, cols-1, 4, 4)
				e.TraceRange(memsim.Read, src.Alloc(), 4, cols-1, 4, 4)
				e.TraceRange(memsim.Read, wallView.Alloc(), int64((rowBase+r)*cols)*4, cols, 4, 4)
				e.TraceRange(memsim.Write, dst.Alloc(), 0, cols, 4, 4)
				for j := 0; j < cols; j++ {
					best := src.Load(q, int64(j))
					if j > 0 {
						if l := src.Load(q, int64(j-1)); l < best {
							best = l
						}
					}
					if j < cols-1 {
						if rr := src.Load(q, int64(j+1)); rr < best {
							best = rr
						}
					}
					w := wallView.Load(q, int64((rowBase+r)*cols+j))
					dst.Store(q, int64(j), w+best)
				}
				src, dst = dst, src
			}
			// Per-cell compute beyond the traced loads: the original kernel
			// runs the whole pyramid in shared memory with boundary
			// handling, so its arithmetic dwarfs the per-cell DRAM traffic.
			e.Work(machine.Duration(chunk*cols) * 70 * machine.Nanosecond)
		}
	}

	res := PathfinderResult{}
	if !cfg.Overlap {
		// Baseline: the whole wall is produced on the CPU and transferred
		// up-front, although each iteration consumes only its slice
		// (Table II's Pathfinder finding, Fig. 10).
		gpuWall, err := ctx.Malloc(int64(rows*cols)*4, "gpuWall")
		if err != nil {
			return PathfinderResult{}, err
		}
		ctx.MemcpyH2D(gpuWall, 0, int32sToBytes(wall))
		wv := memsim.Int32s(gpuWall)
		for row := 1; row < rows; row += cfg.Pyramid {
			chunk := cfg.Pyramid
			if row+chunk > rows {
				chunk = rows - row
			}
			if cfg.ResetBefore > 0 && res.Iterations+1 == cfg.ResetBefore && s.Tracer != nil {
				s.Tracer.Diagnostic("", s.Opt)
			}
			ctx.Launch(nil, fmt.Sprintf("pathfinder_%d", res.Iterations), kernel(wv, row, chunk))
			res.Iterations++
			if cfg.DiagEvery > 0 && res.Iterations%cfg.DiagEvery == 0 {
				ctx.Synchronize()
				s.Diagnostic(cfg.DiagOut, fmt.Sprintf("pathfinder iteration %d", res.Iterations))
			}
			if cfg.StopAfter > 0 && res.Iterations >= cfg.StopAfter {
				ctx.Synchronize()
				return res, nil
			}
		}
		ctx.Synchronize()
	} else {
		// Optimized: per-iteration wall sections, the next section's copy
		// overlapped with the current kernel on a second stream.
		type section struct {
			alloc *memsim.Alloc
			row   int // first wall row in the section
			chunk int
		}
		var secs []section
		for row := 1; row < rows; row += cfg.Pyramid {
			chunk := cfg.Pyramid
			if row+chunk > rows {
				chunk = rows - row
			}
			a, err := ctx.Malloc(int64(chunk*cols)*4, fmt.Sprintf("gpuWall_sec%d", len(secs)))
			if err != nil {
				return PathfinderResult{}, err
			}
			secs = append(secs, section{alloc: a, row: row, chunk: chunk})
		}
		copyStream := ctx.NewStream()
		copySec := func(i int) {
			sec := secs[i]
			ctx.MemcpyH2DAsync(copyStream, sec.alloc, 0,
				int32sToBytes(wall[sec.row*cols:(sec.row+sec.chunk)*cols]))
		}
		copySec(0)
		for i := range secs {
			// Wait until section i has arrived, then compute on it while
			// section i+1 transfers.
			ctx.StreamSynchronize(copyStream)
			if i+1 < len(secs) {
				copySec(i + 1)
			}
			// Sections are indexed locally: their row 0 is wall row sec.row.
			wv := memsim.Int32s(secs[i].alloc)
			ctx.Launch(nil, fmt.Sprintf("pathfinder_%d", i), kernel(wv, 0, secs[i].chunk))
			res.Iterations++
		}
		ctx.Synchronize()
	}

	// Copy the final result row back and reduce on the CPU.
	final := src // src holds the last-written buffer after the swaps
	out := make([]byte, cols*4)
	ctx.MemcpyD2H(out, final.Alloc(), 0)
	best := int32(0)
	for j := 0; j < cols; j++ {
		v := int32(uint32(out[j*4]) | uint32(out[j*4+1])<<8 | uint32(out[j*4+2])<<16 | uint32(out[j*4+3])<<24)
		if j == 0 || v < best {
			best = v
		}
	}
	res.MinPath = best
	return res, nil
}
