// Pathfinder walk-through: reproduce the paper's §IV-C transfer-overlap
// study — per-iteration diagnostics show that each kernel reads only a
// slice of the up-front-transferred gpuWall (Fig. 10), so the optimized
// version transfers sections asynchronously, overlapped with compute;
// the benefit depends on the interconnect (Fig. 11).
//
//	go run ./examples/pathfinder
package main

import (
	"fmt"

	"xplacer/internal/apps/rodinia"
	"xplacer/internal/core"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
	"xplacer/internal/whatif"
)

func main() {
	// 1. Access maps: the wall is transferred whole, each iteration reads
	//    a fifth of it (cf. Fig. 10).
	for _, it := range []int{1, 5} {
		s := core.MustSession(machine.IntelPascal())
		cfg := rodinia.PathfinderConfig{
			Cols: 64, Rows: 11, Pyramid: 2, Seed: 3,
			StopAfter: it, ResetBefore: it,
		}
		if _, err := rodinia.RunPathfinder(s, cfg); err != nil {
			panic(err)
		}
		for _, a := range s.Ctx.Space().Live() {
			if a.Label == "gpuWall" {
				e := s.Tracer.Table().FindByID(a.ID)
				fmt.Printf("GPU reads of the CPU-produced wall, iteration %d (cf. Fig. 10):\n", it)
				fmt.Println(diag.AccessMap(e, diag.GPUReadsCPUOrigin, 64))
			}
		}
	}

	// 2. The overlap optimization on both interconnects (cf. Fig. 11): it
	//    pays off over PCIe and much less (or not at all) over NVLink.
	cfg := rodinia.PathfinderConfig{Cols: 8192, Rows: 600, Pyramid: 20, Seed: 13}
	for _, plat := range []*machine.Platform{machine.IntelPascal(), machine.IBMVolta()} {
		var times [2]machine.Duration
		for i, overlap := range []bool{false, true} {
			c := cfg
			c.Overlap = overlap
			r, err := core.Run(plat, false, func(s *core.Session) error {
				_, err := rodinia.RunPathfinder(s, c)
				return err
			})
			if err != nil {
				panic(err)
			}
			times[i] = r.SimTime
		}
		fmt.Printf("%-14s baseline %12v  overlapped %12v  speedup %.2fx\n",
			plat.Name, times[0], times[1], float64(times[0])/float64(times[1]))
	}

	// 3. What-if: capture the baseline run's access aggregates, let the
	//    replay engine rank candidate placements per allocation, then apply
	//    the winning assignment and compare prediction with measurement.
	plat := machine.IntelPascal()
	var events []timeline.Event
	if _, err := core.Run(plat, false, func(s *core.Session) error {
		s.Ctx.SetWhatIfCapture(true)
		if _, err := rodinia.RunPathfinder(s, cfg); err != nil {
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
		_, err := rodinia.RunPathfinder(s, cfg)
		return err
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("applied: measured %v (prediction off by %+.1f%%)\n", applied.SimTime,
		100*float64(res.BestPredicted-applied.SimTime)/float64(applied.SimTime))
}
