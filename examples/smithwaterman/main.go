// Smith-Waterman walk-through: reproduce the paper's §IV-B analysis —
// the end-of-run diagnostic reveals that only the boundary of the
// CPU-initialized H matrix is ever consumed (Fig. 7), per-iteration
// diagnostics reveal the low-density anti-diagonal pattern (Fig. 8), and
// the rotated-matrix optimization wins, especially when the matrices
// exceed GPU memory (Fig. 9).
//
//	go run ./examples/smithwaterman
package main

import (
	"fmt"

	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
	"xplacer/internal/whatif"
)

func main() {
	plat := machine.IntelPascal()

	// 1. Analysis at the end of the algorithm (Fig. 7): the whole H matrix
	//    is written by the CPU; the GPU consumes only the boundary zeroes.
	s := core.MustSession(plat)
	if _, err := sw.Run(s, sw.Config{N: 20, M: 10, Seed: 1}); err != nil {
		panic(err)
	}
	for _, a := range s.Ctx.Space().Live() {
		if a.Label == "H" {
			e := s.Tracer.Table().FindByID(a.ID)
			fmt.Println("H written by the CPU (initialization, cf. Fig. 7a):")
			fmt.Println(diag.AccessMap(e, diag.CPUWrites, 11))
			fmt.Println("CPU-origin values the GPU actually consumed (cf. Fig. 7b):")
			fmt.Println(diag.AccessMap(e, diag.GPUReadsCPUOrigin, 11))
		}
	}

	// 2. Analysis of a single iteration (Fig. 8): a thin anti-diagonal.
	s2 := core.MustSession(plat)
	if _, err := sw.Run(s2, sw.Config{N: 20, M: 10, Seed: 1, StopAfter: 8, ResetBefore: 8}); err != nil {
		panic(err)
	}
	for _, a := range s2.Ctx.Space().Live() {
		if a.Label == "H" {
			e := s2.Tracer.Table().FindByID(a.ID)
			fmt.Println("GPU writes in iteration 8 (cf. Fig. 8a):")
			fmt.Println(diag.AccessMap(e, diag.GPUWrites, 11))
		}
	}

	// 3. The optimization (Fig. 9): rotate the matrix 45 degrees so each
	//    iteration accesses contiguous memory. Compare at an in-memory
	//    size and at an over-subscribed size.
	fmt.Println("rotated-matrix speedup (simulated time):")
	for _, cse := range []struct {
		label   string
		n       int
		gpuMemX float64 // GPU memory as a multiple of the matrix footprint
	}{
		{"fits in GPU memory", 256, 4.0},
		{"exceeds GPU memory", 256, 0.6},
	} {
		p := plat.Clone()
		p.GPUMemory = int64(float64(sw.FootprintBytes(cse.n, cse.n)) * cse.gpuMemX)
		var times [2]machine.Duration
		for i, rotated := range []bool{false, true} {
			rotated := rotated
			r, err := core.Run(p, false, func(s *core.Session) error {
				_, err := sw.Run(s, sw.Config{N: cse.n, M: cse.n, Seed: 11, Rotated: rotated})
				return err
			})
			if err != nil {
				panic(err)
			}
			times[i] = r.SimTime
		}
		fmt.Printf("  %-22s baseline %12v  rotated %12v  speedup %.2fx\n",
			cse.label, times[0], times[1], float64(times[0])/float64(times[1]))
	}

	// 4. What-if: instead of hand-deriving a fix, capture the baseline
	//    run's access aggregates, let the replay engine rank candidate
	//    placements, then apply the winning assignment and compare the
	//    prediction with the measured re-run.
	swCfg := sw.Config{N: 256, M: 256, Seed: 11}
	var events []timeline.Event
	if _, err := core.Run(plat, false, func(s *core.Session) error {
		s.Ctx.SetWhatIfCapture(true)
		if _, err := sw.Run(s, swCfg); err != nil {
			return err
		}
		s.Ctx.MarkDiagnostic("end of capture")
		events = s.Ctx.Timeline().Events()
		return nil
	}); err != nil {
		panic(err)
	}
	res, err := whatif.Analyze(events, plat)
	if err != nil {
		panic(err)
	}
	fmt.Printf("what-if: observed %v, best assignment %v predicts %v (%+.1f%%)\n",
		res.Observed, res.BestPolicies, res.BestPredicted,
		100*float64(res.BestPredicted-res.Observed)/float64(res.Observed))
	applied, err := core.Run(plat, false, func(s *core.Session) error {
		for label, pol := range res.BestPolicies {
			p, err := um.PlacementByName(pol)
			if err != nil {
				return err
			}
			s.Ctx.SetPlacement(label, p)
		}
		_, err := sw.Run(s, swCfg)
		return err
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("applied: measured %v (prediction off by %+.1f%%)\n", applied.SimTime,
		100*float64(res.BestPredicted-applied.SimTime)/float64(applied.SimTime))
}
