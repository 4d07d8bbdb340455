package bench

import (
	"fmt"
	"io"

	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/rodinia"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// liveAlloc finds a live allocation by label.
func liveAlloc(s *core.Session, label string) (*memsim.Alloc, error) {
	for _, a := range s.Ctx.Space().Live() {
		if a.Label == label {
			return a, nil
		}
	}
	return nil, fmt.Errorf("bench: no live allocation %q", label)
}

// liveEntry finds the shadow entry of a live allocation by label.
func liveEntry(s *core.Session, label string) (*shadow.Entry, error) {
	a, err := liveAlloc(s, label)
	if err != nil {
		return nil, err
	}
	e := s.Tracer.Table().FindByID(a.ID)
	if e == nil {
		return nil, fmt.Errorf("bench: allocation %q has no shadow entry", label)
	}
	return e, nil
}

// Fig4 reproduces the paper's Fig. 4: the partial diagnostic output after
// LULESH's second timestep, showing the domain object (low density,
// alternating accesses) and one GPU-exclusive array (100% density, none).
func Fig4(w io.Writer) error {
	s := core.MustSession(machine.IntelPascal())
	if _, err := lulesh.Run(s, lulesh.Config{Size: 8, Timesteps: 2, DiagEvery: 1}); err != nil {
		return err
	}
	reports := s.Reports()
	second := reports[len(reports)-1]
	fmt.Fprintf(w, "Fig. 4 — LULESH 2: partial XPlacer output after the second iteration\n\n")
	fmt.Fprintf(w, "*** checking %d named allocations\n", len(second.Allocs))
	shown := 0
	for _, label := range []string{"dom", "(dom)->m_p"} {
		a := second.Find(label)
		if a == nil {
			return fmt.Errorf("bench: fig4: no summary for %q", label)
		}
		a.Text(w)
		shown++
	}
	fmt.Fprintf(w, "[%d more entries omitted]\n", len(second.Allocs)-shown)
	return nil
}

// Fig5 reproduces the access maps of the LULESH domain object: CPU writes,
// CPU reads, and GPU reads — once for initialization plus the first
// timestep (Figs. 5a-5c) and once for the second timestep alone
// (Figs. 5d-5f). GPU-write maps are empty and omitted, as in the paper.
func Fig5(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 5 — LULESH 2: access maps of the domain object (3736 bytes)\n\n")
	cases := []struct {
		title string
		cfg   lulesh.Config
	}{
		{"initialization + first timestep (5a-5c)", lulesh.Config{Size: 8, Timesteps: 1}},
		{"second timestep only (5d-5f)", lulesh.Config{Size: 8, Timesteps: 2, ResetBefore: 2}},
	}
	for _, c := range cases {
		s := core.MustSession(machine.IntelPascal())
		if _, err := lulesh.Run(s, c.cfg); err != nil {
			return err
		}
		e, err := liveEntry(s, "dom")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- %s ---\n", c.title)
		for _, cat := range []diag.MapCategory{diag.CPUWrites, diag.CPUReads, diag.GPUReads} {
			fmt.Fprintln(w, diag.AccessMap(e, cat, 64))
		}
	}
	return nil
}

// Fig7 reproduces the Smith-Waterman H-matrix maps for a 20x10 input: the
// CPU initializes the entire matrix (7a) but only the boundary values are
// consumed by the GPU (7b).
func Fig7(w io.Writer) error {
	s := core.MustSession(machine.IntelPascal())
	if _, err := sw.Run(s, sw.Config{N: 20, M: 10, Seed: 1}); err != nil {
		return err
	}
	e, err := liveEntry(s, "H")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 7 — Smith-Waterman (20x10): H matrix after the full run\n\n")
	fmt.Fprintln(w, "(7a) values written by the CPU (full initialization):")
	fmt.Fprintln(w, diag.AccessMap(e, diag.CPUWrites, 11))
	fmt.Fprintln(w, "(7b) CPU-origin values consumed by the GPU (only the boundary):")
	fmt.Fprintln(w, diag.AccessMap(e, diag.GPUReadsCPUOrigin, 11))
	return nil
}

// Fig8 reproduces the per-iteration Smith-Waterman maps at iteration 8:
// the GPU writes one anti-diagonal (8a) and reads the values it produced
// in the previous two iterations (8b).
func Fig8(w io.Writer) error {
	s := core.MustSession(machine.IntelPascal())
	if _, err := sw.Run(s, sw.Config{N: 20, M: 10, Seed: 1, StopAfter: 8, ResetBefore: 8}); err != nil {
		return err
	}
	e, err := liveEntry(s, "H")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fig. 8 — Smith-Waterman (20x10): GPU accesses to H in iteration 8\n\n")
	fmt.Fprintln(w, "(8a) values written by the GPU:")
	fmt.Fprintln(w, diag.AccessMap(e, diag.GPUWrites, 11))
	fmt.Fprintln(w, "(8b) GPU-origin values read by the GPU (previous two diagonals):")
	fmt.Fprintln(w, diag.AccessMap(e, diag.GPUReadsGPUOrigin, 11))
	return nil
}

// Fig10 reproduces the Pathfinder gpuWall maps: the CPU-produced array is
// copied to the GPU up-front (10a), and each of the five iterations reads
// one rows/pyramid slice (10b-10d show iterations 1, 2, and 5).
func Fig10(w io.Writer) error {
	fmt.Fprintf(w, "Fig. 10 — Pathfinder: access maps of gpuWall (each iteration touches 1/5)\n\n")
	// 11 rows with pyramid height 2 give 5 kernel iterations.
	base := rodinia.PathfinderConfig{Cols: 64, Rows: 11, Pyramid: 2, Seed: 3}

	// (10a): the up-front transfer, recorded as CPU writes.
	s := core.MustSession(machine.IntelPascal())
	if _, err := rodinia.RunPathfinder(s, base); err != nil {
		return err
	}
	e, err := liveEntry(s, "gpuWall")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(10a) gpuWall transferred from the CPU (recorded as CPU writes):")
	fmt.Fprintln(w, diag.AccessMap(e, diag.CPUWrites, 64))

	// (10b-10d): GPU reads of the CPU data in iterations 1, 2, and 5.
	for _, it := range []int{1, 2, 5} {
		cfg := base
		cfg.StopAfter = it
		cfg.ResetBefore = it
		s := core.MustSession(machine.IntelPascal())
		if _, err := rodinia.RunPathfinder(s, cfg); err != nil {
			return err
		}
		e, err := liveEntry(s, "gpuWall")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "(GPU reads CPU — iteration %d)\n", it)
		fmt.Fprintln(w, diag.AccessMap(e, diag.GPUReadsCPUOrigin, 64))
	}
	return nil
}
