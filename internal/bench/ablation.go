package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"xplacer/internal/advisor"
	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/trace"
)

// The ablation experiments quantify the calibrated cost-model mechanisms
// DESIGN.md calls out, plus the automatic advisor:
//
//   - AblationAdvisor: the measure -> advise -> re-run loop applied to
//     LULESH, compared with the paper's hand-picked remedies;
//   - AblationFaultStall: Fig. 6 with the fault-storm stall switched off —
//     shows the stall carries the size-dependent part of the speedup;
//   - AblationPageTouch: Fig. 9's in-memory gap with the per-page TLB cost
//     switched off — shows it carries the in-memory rotation win;
//   - AblationSMTCutoff: per-access tracing cost across SMT sizes,
//     demonstrating the linear/binary switch of §IV-D.

// AblationAdvisor runs instrumented LULESH, derives placement advice from
// the steady-state diagnostic, applies it to a fresh baseline run, and
// compares against the baseline and the paper's hand-tuned ReadMostly.
func AblationAdvisor(plat *machine.Platform, size, timesteps int) ([]Speedup, error) {
	// Measure: instrumented baseline with a steady-state diagnostic.
	s, err := core.NewSession(plat)
	if err != nil {
		return nil, err
	}
	if _, err := lulesh.Run(s, lulesh.Config{
		Size: size, Timesteps: 2, Variant: lulesh.Baseline, ResetBefore: 2,
	}); err != nil {
		return nil, err
	}
	rep := s.Diagnostic(nil, "steady state")
	recs := advisor.Recommend(rep, advisor.DefaultOptions(plat))

	// Re-run: baseline, advised, and hand-tuned ReadMostly, uninstrumented.
	baseline, err := simTime(plat, func(s *core.Session) error {
		_, err := lulesh.Run(s, lulesh.Config{Size: size, Timesteps: timesteps})
		return err
	})
	if err != nil {
		return nil, err
	}
	advised, err := simTime(plat, func(s *core.Session) error {
		_, err := lulesh.Run(s, lulesh.Config{
			Size: size, Timesteps: timesteps,
			PostSetup: func(s *core.Session) error {
				_, err := advisor.ApplyByLabel(s.Ctx, recs)
				return err
			},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	handTuned, err := simTime(plat, func(s *core.Session) error {
		_, err := lulesh.Run(s, lulesh.Config{Size: size, Timesteps: timesteps, Variant: lulesh.ReadMostly})
		return err
	})
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("size=%d", size)
	return []Speedup{
		{Platform: plat.Name, Label: label, Variant: "advisor", Baseline: baseline, Time: advised},
		{Platform: plat.Name, Label: label, Variant: "readmostly", Baseline: baseline, Time: handTuned},
	}, nil
}

// AblationFaultStall compares the LULESH duplication speedup with the
// fault-storm stall enabled (default) and disabled.
func AblationFaultStall(size, timesteps int) ([]Speedup, error) {
	var rows []Speedup
	for _, stall := range []int{0, machine.IntelPascal().FaultStallPct} {
		plat := machine.IntelPascal().Clone()
		plat.FaultStallPct = stall
		baseline, err := simTime(plat, func(s *core.Session) error {
			_, err := lulesh.Run(s, lulesh.Config{Size: size, Timesteps: timesteps})
			return err
		})
		if err != nil {
			return nil, err
		}
		dup, err := simTime(plat, func(s *core.Session) error {
			_, err := lulesh.Run(s, lulesh.Config{Size: size, Timesteps: timesteps, Variant: lulesh.DupDomain})
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Speedup{
			Platform: plat.Name,
			Label:    fmt.Sprintf("stall=%d%%", stall),
			Variant:  "dupdomain",
			Baseline: baseline,
			Time:     dup,
		})
	}
	return rows, nil
}

// AblationPageTouch compares the in-memory Smith-Waterman rotation gain
// with and without the per-kernel distinct-page cost.
func AblationPageTouch(n int) ([]Speedup, error) {
	var rows []Speedup
	for _, ptc := range []machine.Duration{0, machine.IntelPascal().PageTouchCost} {
		plat := machine.IntelPascal().Clone()
		plat.PageTouchCost = ptc
		var times [2]machine.Duration
		for i, rotated := range []bool{false, true} {
			rotated := rotated
			t, err := simTime(plat, func(s *core.Session) error {
				_, err := sw.Run(s, sw.Config{N: n, M: n, Seed: 11, Rotated: rotated})
				return err
			})
			if err != nil {
				return nil, err
			}
			times[i] = t
		}
		rows = append(rows, Speedup{
			Platform: plat.Name,
			Label:    fmt.Sprintf("pagetouch=%v", ptc),
			Variant:  "rotated",
			Baseline: times[0],
			Time:     times[1],
		})
	}
	return rows, nil
}

// SMTCutoffRow is one shadow-memory-table sizing measurement.
type SMTCutoffRow struct {
	Entries  int
	NsAccess float64
}

// AblationSMTCutoff measures the per-access tracing cost, through
// trace.Tracer.TraceAccess as the simulator records, as the number of
// allocations grows across the linear/binary search switch at 64 entries
// (§IV-D). The allocations are sub-page (1 KiB, four to a shadow page) so
// every lookup takes the sorted-table fallback the cutoff governs — for
// whole-page owners the two-level page index answers in O(1) and the
// cutoff never fires — and consecutive accesses cycle through the
// allocations so neither the drain-side last-entry cache nor scalar
// coalescing can short-circuit the search. Each size reports the fastest
// of three rounds, and every round times all sizes back to back, so a
// spell of load from another process slows the sizes alike instead of
// inverting the 63/64 comparison.
func AblationSMTCutoff() []SMTCutoffRow {
	type setup struct {
		tr     *trace.Tracer
		allocs []*memsim.Alloc
	}
	sizes := []int{8, 16, 32, 48, 63, 64, 128, 256, 512}
	setups := make([]setup, len(sizes))
	rows := make([]SMTCutoffRow, len(sizes))
	for k, n := range sizes {
		sp := memsim.NewSpace(256)
		setups[k].tr = trace.New()
		for i := 0; i < n; i++ {
			a, err := sp.Alloc(1<<10, memsim.Managed, fmt.Sprintf("a%d", i))
			if err != nil {
				panic(err)
			}
			setups[k].tr.TraceAlloc(a)
			setups[k].allocs = append(setups[k].allocs, a)
		}
		rows[k] = SMTCutoffRow{Entries: n, NsAccess: math.Inf(1)}
	}
	const iters, rounds = 500_000, 3
	for r := 0; r < rounds; r++ {
		for k, st := range setups {
			n := len(st.allocs)
			start := time.Now()
			for i := 0; i < iters; i++ {
				a := st.allocs[i%n]
				st.tr.TraceAccess(machine.GPU, a, a.Base+memsim.Addr((i*8)&0x3F8), 8, memsim.Read)
			}
			rows[k].NsAccess = math.Min(rows[k].NsAccess, float64(time.Since(start).Nanoseconds())/iters)
		}
	}
	return rows
}

// RenderAblations runs and prints all ablations.
func RenderAblations(w io.Writer, quick bool) error {
	size, steps, swN := 12, 16, 900
	stallSize := 24
	if quick {
		size, steps, swN = 6, 8, 300
		stallSize = 10
	}

	fmt.Fprintln(w, "Ablation A — automatic placement advisor vs. hand-tuned remedy (LULESH)")
	for _, plat := range []*machine.Platform{machine.IntelPascal(), machine.IBMVolta()} {
		rows, err := AblationAdvisor(plat, size, steps)
		if err != nil {
			return err
		}
		renderSpeedups(w, "", rows)
	}

	fmt.Fprintln(w, "\nAblation B — fault-storm stall on/off (carries the size-dependent Fig. 6 gain)")
	rows, err := AblationFaultStall(stallSize, steps)
	if err != nil {
		return err
	}
	renderSpeedups(w, "", rows)

	fmt.Fprintln(w, "\nAblation C — per-kernel page-touch cost on/off (carries the in-memory Fig. 9 gain)")
	rows, err = AblationPageTouch(swN)
	if err != nil {
		return err
	}
	renderSpeedups(w, "", rows)

	fmt.Fprintln(w, "\nAblation D — per-access tracing cost vs. SMT size (linear < 64 entries, binary above; §IV-D)")
	fmt.Fprintf(w, "%8s %12s\n", "entries", "ns/access")
	for _, r := range AblationSMTCutoff() {
		fmt.Fprintf(w, "%8d %12.1f\n", r.Entries, r.NsAccess)
	}
	return nil
}
