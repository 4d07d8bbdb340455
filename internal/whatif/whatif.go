// Package whatif is the placement what-if engine (paper §V): it replays a
// captured run's event trace through the simulator's cost models under
// candidate data placements and predicts each candidate's total simulated
// time, without re-running the application.
//
// The input is the timeline event stream of a live run recorded with
// cuda.Context.SetWhatIfCapture enabled: kernel and host-phase spans carry
// per-(allocation, page) access aggregates (timeline.AllocAccess), and
// every clock-affecting runtime operation (alloc, free, advice, prefetch,
// memcpy, sync, launch) is an event. Replay rebuilds the clock
// choreography event by event and re-prices the aggregates through a
// fresh um.Driver, so placement-dependent costs (faults, migrations,
// remote traffic, eviction) are re-derived rather than extrapolated.
// Each (span, page) aggregate is one call to um.Driver.Access, the same
// page state machine a live run calls once per element access. Within
// one span the driver prices every access of one page identically (the
// steady state the first access establishes) and splits a span where an
// access counter migrates the page, so per-page aggregate totals lose no
// information and an all-observed replay is exact.
//
// Known approximations, accepted for the replay's compactness:
//
//   - cudaEvent Record/WaitEvent host overheads (1µs each) emit no events
//     and are invisible to replay; EventSynchronize replays as a full
//     device drain. No example application uses cudaEvents.
//   - Under GPU memory oversubscription the replay's eviction order can
//     diverge from the live interleaving of individual accesses.
//   - The optional GPU L2 model prices individual addresses and is not
//     replayed; no built-in platform preset enables it.
//   - A counter migration that splits a span assumes uniform words per
//     access, and under ReadMostly a span's reads are priced before its
//     writes (see um.Driver.Access).
package whatif

import (
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
)

// Candidate is one policy's prediction for one allocation, all other
// allocations kept at their observed placement.
type Candidate struct {
	Placement um.Placement     `json:"-"`
	Policy    string           `json:"policy"`
	Predicted machine.Duration `json:"predicted_ps"`
	// Delta is Predicted − Observed; negative predicts a speedup.
	Delta machine.Duration `json:"delta_ps"`
	// Applicable marks candidates the programmer could adopt verbatim.
	// An explicit-copy candidate on an allocation the host accesses
	// element-wise is predict-only: the prediction assumes the host works
	// on a private mirror, which needs a code restructure, not just an
	// allocation-call swap.
	Applicable bool   `json:"applicable"`
	Note       string `json:"note,omitempty"`
}

// AllocReport ranks the candidate placements of one allocation,
// best-predicted first.
type AllocReport struct {
	AllocID      int         `json:"alloc_id"`
	Label        string      `json:"label"`
	Kind         string      `json:"kind"`
	HostAccessed bool        `json:"host_accessed"`
	Candidates   []Candidate `json:"candidates"`
	// Winner is the applicable candidate with the smallest prediction;
	// ties keep the observed placement.
	Winner          um.Placement     `json:"-"`
	WinnerPolicy    string           `json:"winner"`
	WinnerPredicted machine.Duration `json:"winner_predicted_ps"`
	// Gain is Observed − WinnerPredicted (≥ 0).
	Gain machine.Duration `json:"gain_ps"`
}

// Result is the full what-if analysis of one run.
type Result struct {
	// Observed is the all-observed replay's total — the baseline every
	// prediction is compared against (equals the live run's simulated
	// total; see the package documentation).
	Observed machine.Duration `json:"observed_ps"`
	// Allocs reports per-allocation candidate rankings, largest predicted
	// gain first.
	Allocs []AllocReport `json:"allocs"`
	// Best assigns each allocation whose winner beat its observed
	// placement that winner (alloc ID → placement).
	Best map[int]um.Placement `json:"-"`
	// BestPolicies is Best keyed by label for the JSON report.
	BestPolicies map[string]string `json:"best,omitempty"`
	// BestPredicted is the predicted total with every winner applied at
	// once (Observed when no winner beats its observed placement).
	BestPredicted machine.Duration `json:"best_predicted_ps"`
}

// Gain is the predicted whole-run gain of the best combined assignment.
func (r *Result) Gain() machine.Duration { return r.Observed - r.BestPredicted }

// candidatePlacements returns the policies worth trying for an allocation
// kind. Host-only allocations have no placement choice; device-only
// allocations can become managed (plain or prefetched) but preferred
// location and read-mostly advice only affect managed pages the observed
// run does not have.
func candidatePlacements(kind memsim.Kind) []um.Placement {
	switch kind {
	case memsim.Managed:
		return um.Placements()
	case memsim.DeviceOnly:
		return []um.Placement{um.PlaceObserved, um.PlaceManaged, um.PlacePrefetch}
	}
	return nil
}

// Analyze replays the trace under every candidate placement of every
// allocation (one at a time), ranks the predictions, and replays the
// combined per-allocation winners once for the whole-run best prediction.
// Candidate replays run on a worker pool sized to GOMAXPROCS; use
// AnalyzeParallel to pin the worker count. The result is deterministic and
// identical to a sequential analysis regardless of worker count.
func Analyze(events []timeline.Event, plat *machine.Platform) (*Result, error) {
	return AnalyzeParallel(events, plat, 0)
}

// AnalyzeParallel is Analyze with an explicit candidate-replay worker
// count; workers < 1 means GOMAXPROCS. It is a single-window run of the
// incremental core (see Incremental): candidate replays are independent
// and run on a worker pool, and results are assembled in the fixed
// (allocation, candidate) order, making the output — including error
// selection — byte-identical across worker counts.
func AnalyzeParallel(events []timeline.Event, plat *machine.Platform, workers int) (*Result, error) {
	inc := NewIncremental(plat, workers)
	inc.Ingest(events)
	return inc.Snapshot()
}
