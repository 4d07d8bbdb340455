package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinySizes runs every workload in well under a second per op.
var tinySizes = sizes{
	luleshSize: 4, luleshSteps: 3,
	backpropIn: 512, gaussianN: 32, cfdCells: 256, ludN: 32, nnRecords: 512,
	pfCols: 256, pfRows: 21, pfPyramid: 5,
	pgSlices: 8, pgLen: 256, pgSweeps: 2, pgGather: 1024,
}

func tinyRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	res, err := run(runConfig{workload: name, seed: 7, measure: 300 * time.Millisecond, traced: traced, sizes: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	s := res.summary
	if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", s.Correct, s.Attempted, s.Failed)
	}
	return res
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size: each passes its checks, prints every named metric with its unit,
// and reproduces the same report digest in both runs.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			gated := tinyRun(t, name, false)
			for _, m := range endToEnd {
				got, ok := gated.summary.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("end-to-end %s: got %+v, want unit %s", m.name, got, m.unit)
				}
				if got.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, got.Value)
				}
			}
			if len(gated.summary.Metrics) != len(endToEnd) {
				t.Errorf("gated run printed %d metrics, want %d", len(gated.summary.Metrics), len(endToEnd))
			}
			traced := tinyRun(t, name, true)
			for _, m := range perLayer {
				if got, ok := traced.summary.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.name, got, m.unit)
				}
			}
			if len(traced.summary.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(traced.summary.Metrics), len(perLayer))
			}
			if len(traced.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			if gated.digest == "" || gated.digest != traced.digest {
				t.Errorf("digest %q in the gated run, %q in the traced run", gated.digest, traced.digest)
			}
		})
	}
}

func tinyFleet(t *testing.T) *fleetWL {
	t.Helper()
	w, err := newFleet(tinySizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := &pairs{}
	p.onePair(w, nil, 7, 0)
	if p.failed != 0 {
		t.Fatal("an unmodified fleet op failed")
	}
	return w
}

// TestCorruptStreamCountsAsFailed flips one byte of one captured stream:
// the aggregator must reject the segment and the op must count as failed.
func TestCorruptStreamCountsAsFailed(t *testing.T) {
	w := tinyFleet(t)
	st := &w.streams[1]
	st.data = append([]byte(nil), st.data...)
	st.data[len(st.data)/2] ^= 0x40
	p := &pairs{}
	p.onePair(w, nil, 7, 0)
	if p.attempted != 1 || p.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want the corrupted op failed", p.attempted, p.failed)
	}
}

// TestWrongReferenceCountsAsFailed alters one proc's reference report:
// the byte comparison must catch it and the op must count as failed.
func TestWrongReferenceCountsAsFailed(t *testing.T) {
	w := tinyFleet(t)
	st := &w.streams[0]
	st.ref = append([]byte(nil), st.ref...)
	st.ref[len(st.ref)/2] ^= 0x01
	p := &pairs{}
	p.onePair(w, nil, 7, 0)
	if p.attempted != 1 || p.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want the op against a wrong reference failed", p.attempted, p.failed)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// in step with the benchmark's declaration at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ name, unit string }, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: printed %s (%s), declared %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}

func TestMedianAndCovered(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	parent := &span{Start: 0, End: 10}
	kids := []*span{{Start: 1, End: 3}, {Start: 2, End: 5}, {Start: 8, End: 12}}
	if got := covered(parent, kids); got != 6 {
		t.Errorf("covered = %v, want 6 (1-5 and 8-10)", got)
	}
}
