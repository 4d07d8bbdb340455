package whatif_test

import (
	"testing"

	"xplacer/internal/apps/rodinia"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/machine"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
	"xplacer/internal/whatif"
)

// liveRun is a captured live run: the event trace plus the ground truth a
// replay under the observed placement must reproduce.
type liveRun struct {
	events []timeline.Event
	end    machine.Duration
	stats  um.Stats
}

// captureRun executes app uninstrumented with what-if capture enabled and
// snapshots the trace, the final host clock, and the driver statistics.
func captureRun(t testing.TB, plat *machine.Platform, app func(*core.Session) error) liveRun {
	t.Helper()
	var lr liveRun
	if _, err := core.Run(plat, false, func(s *core.Session) error {
		s.Ctx.SetWhatIfCapture(true)
		if err := app(s); err != nil {
			return err
		}
		s.Ctx.MarkDiagnostic("end of capture") // flush the trailing host window
		lr.events = s.Ctx.Timeline().Events()
		lr.end = s.Ctx.Now()
		lr.stats = s.Ctx.Driver().Stats()
		return nil
	}); err != nil {
		t.Fatalf("live run: %v", err)
	}
	return lr
}

// testApps are the capture subjects of the exactness property: both real
// benchmark ports, in configurations that exercise managed and
// device-only allocations, explicit transfers, async overlap, advice, and
// diagnostics-free steady state.
func testApps() map[string]func(*core.Session) error {
	return map[string]func(*core.Session) error{
		"pathfinder": func(s *core.Session) error {
			_, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{Cols: 1024, Rows: 101, Pyramid: 20, Seed: 5})
			return err
		},
		"pathfinder-overlap": func(s *core.Session) error {
			_, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{Cols: 64, Rows: 41, Pyramid: 10, Seed: 1, Overlap: true})
			return err
		},
		"smithwaterman": func(s *core.Session) error {
			_, err := sw.Run(s, sw.Config{N: 48, M: 32, Seed: 3})
			return err
		},
		"smithwaterman-rotated": func(s *core.Session) error {
			_, err := sw.Run(s, sw.Config{N: 32, M: 32, Seed: 7, Rotated: true})
			return err
		},
	}
}

// TestObservedReplayIsExact is the engine's determinism property: replaying
// a captured trace under the observed placement must reproduce the live
// run's final host clock AND its per-fault-class driver statistics
// exactly — not approximately. This is what licenses trusting the replay's
// predictions under changed placements: the cost model is re-executed, not
// curve-fitted.
func TestObservedReplayIsExact(t *testing.T) {
	// A hardware-coherent platform whose access counters migrate a page
	// at its first remote access: replay must split every span at its
	// first remote access, as the live run migrates there.
	counters := machine.IBMVolta().Clone()
	counters.Name = "IBM+Volta (counter threshold 0)"
	counters.CounterMigrationThreshold = 0
	plats := map[string]*machine.Platform{
		"intel-pascal":        machine.IntelPascal(),
		"intel-volta":         machine.IntelVolta(),
		"ibm-volta":           machine.IBMVolta(),
		"ibm-volta-counter-0": counters,
	}
	for pname, plat := range plats {
		for aname, app := range testApps() {
			t.Run(pname+"/"+aname, func(t *testing.T) {
				lr := captureRun(t, plat, app)
				out, err := whatif.Replay(lr.events, plat, nil)
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if out.HostEnd != lr.end {
					t.Errorf("replayed host end %s != live %s (Δ %s)",
						out.HostEnd, lr.end, out.HostEnd-lr.end)
				}
				if out.Stats != lr.stats {
					t.Errorf("replayed driver stats diverge:\nreplay: %+v\nlive:   %+v", out.Stats, lr.stats)
				}
			})
		}
	}
}

// TestReplayWithoutCaptureErrors: a trace recorded without
// SetWhatIfCapture lacks the page aggregates and must be rejected, not
// silently replayed as compute-only.
func TestReplayWithoutCaptureErrors(t *testing.T) {
	plat := machine.IntelPascal()
	var events []timeline.Event
	if _, err := core.Run(plat, false, func(s *core.Session) error {
		if _, err := sw.Run(s, sw.Config{N: 8, M: 8, Seed: 1}); err != nil {
			return err
		}
		events = s.Ctx.Timeline().Events()
		return nil
	}); err != nil {
		t.Fatalf("live run: %v", err)
	}
	if _, err := whatif.Replay(events, plat, nil); err == nil {
		t.Fatal("replay of capture-less trace succeeded; want error")
	}
}
