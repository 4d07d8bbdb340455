// LULESH walk-through: reproduce the paper's §III-D analysis session —
// run the proxy app with per-timestep diagnostics, inspect the domain
// object's summary and access maps (Figs. 4 and 5), compare the baseline
// against the remedies of §IV-A — then go past the paper: restructure
// the run into an explicit multi-phase timestep loop (solve phases
// interleaved with in-situ analysis phases) and let the closed-loop
// adaptive controller discover per-allocation placements online,
// beating every static whole-run strategy.
//
//	go run ./examples/lulesh
package main

import (
	"fmt"
	"os"

	"xplacer/internal/adapt"
	"xplacer/internal/apps/lulesh"
	"xplacer/internal/core"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
)

func main() {
	plat := machine.IntelPascal()

	// 1. Instrumented run, diagnostics after every timestep (paper: "in
	//    LULESH the diagnostics are called at the end of every timestep").
	s := core.MustSession(plat)
	if _, err := lulesh.Run(s, lulesh.Config{Size: 8, Timesteps: 2, DiagEvery: 1}); err != nil {
		panic(err)
	}
	reports := s.Reports()
	second := reports[len(reports)-1]

	fmt.Println("--- domain object after the second timestep (cf. Fig. 4) ---")
	if dom := second.Find("dom"); dom != nil {
		dom.Text(os.Stdout)
	}
	if mp := second.Find("(dom)->m_p"); mp != nil {
		mp.Text(os.Stdout)
	}
	fmt.Println("findings on the domain object:")
	for _, f := range second.Findings {
		if f.Alloc == "dom" {
			fmt.Printf("  %s\n      remedy: %s\n", f, f.Kind.Remedy())
		}
	}

	// 2. Access maps of the domain object in the steady state (Fig. 5d-f).
	s2 := core.MustSession(plat)
	if _, err := lulesh.Run(s2, lulesh.Config{Size: 8, Timesteps: 2, ResetBefore: 2}); err != nil {
		panic(err)
	}
	for _, a := range s2.Ctx.Space().Live() {
		if a.Label == "dom" {
			e := s2.Tracer.Table().FindByID(a.ID)
			fmt.Println("\n--- steady-state access maps of dom (cf. Fig. 5d-5f) ---")
			fmt.Println(diag.AccessMap(e, diag.CPUWrites, 64))
			fmt.Println(diag.AccessMap(e, diag.GPUReads, 64))
		}
	}

	// 3. Quantify the remedies (cf. Fig. 6) on this platform.
	fmt.Println("--- remedies vs. baseline (simulated time, size 8, 16 timesteps) ---")
	var base machine.Duration
	for _, v := range lulesh.Variants() {
		r, err := core.Run(plat, false, func(s *core.Session) error {
			_, err := lulesh.Run(s, lulesh.Config{Size: 8, Timesteps: 16, Variant: v})
			return err
		})
		if err != nil {
			panic(err)
		}
		if v == lulesh.Baseline {
			base = r.SimTime
			fmt.Printf("%-12s %12v\n", v, r.SimTime)
			continue
		}
		fmt.Printf("%-12s %12v   speedup %.2fx\n", v, r.SimTime, float64(base)/float64(r.SimTime))
	}

	// 4. Multi-phase timestep loop + closed-loop adaptive placement. The
	//    solver phases want the field arrays at the GPU; the interleaved
	//    in-situ analysis phases scan some of them on the host while GPU
	//    kernels re-read them — no single whole-run placement fits. The
	//    controller analyzes capture windows online and re-places each
	//    allocation mid-run as the phases shift.
	mp := lulesh.MultiPhaseConfig{Elems: 65536, Cycles: 3, SolveSteps: 10, AnalysisSteps: 4}
	fmt.Println("--- multi-phase loop: static placements vs the adaptive controller ---")
	bestStatic := machine.Duration(0)
	for _, pol := range lulesh.StaticPolicies() {
		cfg := mp
		cfg.Static = pol
		r, err := core.Run(plat, false, func(s *core.Session) error {
			_, err := lulesh.RunMultiPhase(s, cfg)
			return err
		})
		if err != nil {
			panic(err)
		}
		if bestStatic == 0 || r.SimTime < bestStatic {
			bestStatic = r.SimTime
		}
		fmt.Printf("static %-14s %12v\n", pol, r.SimTime)
	}
	var rep *adapt.Report
	r, err := core.Run(plat, false, func(s *core.Session) error {
		ctrl := adapt.Attach(s.Ctx, adapt.Config{Window: machine.Millisecond, MinGainPct: 2})
		if _, err := lulesh.RunMultiPhase(s, mp); err != nil {
			return err
		}
		if err := ctrl.Finish(); err != nil {
			return err
		}
		rep = ctrl.Report()
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("adaptive              %12v   %.2fx vs best static, %d placement switches\n",
		r.SimTime, float64(bestStatic)/float64(r.SimTime), rep.Switches)
	fmt.Println("controller decision log:")
	rep.Text(os.Stdout)
}
