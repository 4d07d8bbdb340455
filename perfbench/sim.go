package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/rodinia"
	"xplacer/internal/core"
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/record"
	"xplacer/internal/whatif"
)

// app is one simulated program: run executes it on a session and returns
// a checksum of its numeric output.
type app struct {
	name string
	run  func(s *core.Session) (string, error)
	// want lists the paper's Table II findings (kind on allocation) the
	// app's reports must contain; clean apps must report no finding.
	want  []want
	clean bool
}

type want struct {
	kind  detect.Kind
	alloc string
}

func f64(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func f32s(xs []float32) string {
	h := fnv.New64a()
	for _, x := range xs {
		b := math.Float32bits(x)
		h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
	}
	return fmt.Sprintf("%d:%016x", len(xs), h.Sum64())
}

// luleshApp is the LULESH proxy, baseline placement; diagEvery 1 is the
// paper's Table III set-up (a diagnostic every timestep).
func luleshApp(sz sizes, diagEvery int) app {
	cfg := lulesh.Config{Size: sz.luleshSize, Timesteps: sz.luleshSteps, Variant: lulesh.Baseline, DiagEvery: diagEvery}
	return app{
		name: "lulesh",
		run: func(s *core.Session) (string, error) {
			res, err := lulesh.Run(s, cfg)
			return f64(res.FinalOriginEnergy), err
		},
		want: []want{{detect.AlternatingAccess, "dom"}},
	}
}

// rodiniaApps are the six range-converted Rodinia programs, seeded from
// the workload seed. perIteration adds pathfinder's per-iteration
// diagnostics,
// which is where the paper's low-density finding on gpuWall shows.
func rodiniaApps(sz sizes, seed int64, perIteration bool) []app {
	pfDiag := 0
	if perIteration {
		pfDiag = 1
	}
	return []app{
		{
			name: "backprop",
			run: func(s *core.Session) (string, error) {
				r, err := rodinia.RunBackprop(s, rodinia.BackpropConfig{In: sz.backpropIn, Hidden: 16, Seed: seed})
				return f64(r.HiddenSum) + f64(r.WeightSum), err
			},
			want: []want{{detect.UnusedAllocation, "output_hidden_cuda"}, {detect.UnnecessaryTransferOut, "input_cuda"}},
		},
		{
			name: "cfd",
			run: func(s *core.Session) (string, error) {
				r, err := rodinia.RunCFD(s, rodinia.CFDConfig{Cells: sz.cfdCells, Neighbors: 4, Iterations: 4, Seed: seed + 1})
				return f64(r.DensitySum), err
			},
			clean: true,
		},
		{
			name: "gaussian",
			run: func(s *core.Session) (string, error) {
				r, err := rodinia.RunGaussian(s, rodinia.GaussianConfig{N: sz.gaussianN})
				return f32s(r.X), err
			},
			want: []want{{detect.UnnecessaryTransferIn, "m_cuda"}},
		},
		{
			name: "lud",
			run: func(s *core.Session) (string, error) {
				r, err := rodinia.RunLUD(s, rodinia.LUDConfig{N: sz.ludN, Seed: seed + 2})
				return f32s(r.LU), err
			},
			want: []want{{detect.UnnecessaryTransferOut, "m_d"}},
		},
		{
			name: "nn",
			run: func(s *core.Session) (string, error) {
				r, err := rodinia.RunNN(s, rodinia.NNConfig{Records: sz.nnRecords, K: 5, QueryLat: 30, QueryLng: 90, Seed: seed + 3})
				return f32s(r.Distances), err
			},
			clean: true,
		},
		{
			name: "pathfinder",
			run: func(s *core.Session) (string, error) {
				r, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{
					Cols: sz.pfCols, Rows: sz.pfRows, Pyramid: sz.pfPyramid, Seed: seed + 4, DiagEvery: pfDiag,
				})
				return fmt.Sprintf("%d/%d", r.MinPath, r.Iterations), err
			},
			want: []want{{detect.LowAccessDensity, "gpuWall"}},
		},
	}
}

// appOut is one app run's output.
type appOut struct {
	// sess keeps the run's analysis state (shadow table, sinks, timeline)
	// referenced until the op's live heap is read.
	sess     *core.Session
	sum      string
	sim      machine.Duration
	accesses int64
	reports  []diag.Report
	final    []byte // the finished report's JSON
	observed machine.Duration
}

// simWL is a simulated-program workload: lulesh-scalar runs the LULESH
// proxy alone with no analysis sinks; rodinia-range runs the six Rodinia
// apps in sequence with the full analysis (heat map, patterns, what-if).
type simWL struct {
	apps     []app
	full     bool
	plat     *machine.Platform
	accesses int64
}

func (w *simWL) prepare(bool) error { return nil }

func (w *simWL) endToEnd(p *pairs) map[string]float64 { return programEndToEnd(p, w.accesses) }

// layers reads the simulator's own time off the untraced twin.
func (w *simWL) layers(a, _ *pairs) sample { return sample{"cuda.untraced_ms": median(a.tMs)} }

func (w *simWL) twin() (*opOut, error) {
	outs := make([]appOut, len(w.apps))
	for i, a := range w.apps {
		s, err := core.NewPlainSession(w.plat)
		if err != nil {
			return nil, err
		}
		outs[i].sess = s
		if outs[i].sum, err = a.run(s); err != nil {
			return nil, fmt.Errorf("%s untraced: %w", a.name, err)
		}
		outs[i].sim = s.SimTime()
	}
	return &opOut{data: outs}, nil
}

// measured runs every app traced through its finished report: the
// end-of-run diagnostic and, on rodinia-range, the heat-map and pattern
// summaries, the what-if analysis, and the report JSON.
func (w *simWL) measured(tr *tracer) (*opOut, error) {
	out := &opOut{}
	outs := make([]appOut, len(w.apps))
	if tr != nil {
		out.layers = sample{}
	}
	for i, a := range w.apps {
		var s *core.Session
		var err error
		spanned(tr, "session.new", func() { s, err = core.NewSession(w.plat) })
		if err != nil {
			return nil, err
		}
		var hm *record.HeatmapSink
		if w.full {
			hm = record.NewHeatmapSink(s.Tracer.Table())
			s.Tracer.AddSink(hm)
			s.Tracer.EnablePatterns(s.Ctx.Now)
			s.Ctx.SetWhatIfCapture(true)
		}
		b := installBoundary(s, tr, w.full)
		o := &outs[i]
		o.sess = s
		spanned(tr, "app.run", func() {
			o.sum, err = a.run(s)
			b.closeDiag()
		})
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", a.name, err)
		}
		o.sim = s.SimTime()

		t0 := time.Now()
		var rep diag.Report
		var events int
		if w.full {
			b.flush(s)
			rep = b.diagnostic(s, "end of "+a.name)
			spanned(tr, "summary.heatmap", func() { rep.Heatmap = diag.SummarizeHeatmap(hm, 64) })
			spanned(tr, "summary.patterns", func() {
				rep.Patterns = diag.SummarizePatterns(s.Tracer.Patterns(), w.plat.CoalescePenaltyPct)
				rep.Patterns.AnnotateHeatmap(rep.Heatmap)
			})
			spanned(tr, "whatif.analyze", func() {
				ev := s.Ctx.Timeline().Events()
				events = len(ev)
				rep.WhatIf, err = whatif.AnalyzeParallel(ev, w.plat, 0)
			})
			if err != nil {
				return nil, fmt.Errorf("%s what-if: %w", a.name, err)
			}
			o.observed = rep.WhatIf.Observed
		} else {
			rep = b.diagnostic(s, "end of run")
		}
		var js bytes.Buffer
		spanned(tr, "report.json", func() { err = rep.JSON(&js) })
		if err != nil {
			return nil, err
		}
		out.report += time.Since(t0)
		o.final = js.Bytes()
		o.reports = s.Reports()
		st := s.Tracer.Stats()
		o.accesses = st.Reads + st.Writes + st.ReadWrites

		if b != nil {
			b.addTo(out.layers)
			out.captures = append(out.captures, b.cap)
			out.layers["whatif.events"] += float64(events)
			for _, r := range o.reports {
				out.layers["diag.findings"] += float64(len(r.Findings))
			}
		}
	}
	out.data = outs
	if tr != nil {
		l := out.layers
		l["diag.ms"] = tr.opTotal("diag")
		l["diag.calls"] = tr.opCount("diag")
		l["whatif.ms"] = tr.opTotal("whatif.analyze")
		l["_analysis_ms"] = l["diag.ms"] + l["whatif.ms"] + tr.opTotal("summary.heatmap") + tr.opTotal("summary.patterns") + tr.opTotal("report.json")
		if w.full {
			l["_all_sinks"] = 1
		}
	}
	return out, nil
}

// check compares each traced app with its untraced twin (checksum and
// simulated time), looks for the paper's findings, checks the what-if
// all-observed replay against the live simulated time, and digests the
// finished reports.
func (w *simWL) check(m, t *opOut) (string, error) {
	mo, to := m.data.([]appOut), t.data.([]appOut)
	h := sha256.New()
	var accesses int64
	for i, a := range w.apps {
		got, twin := mo[i], to[i]
		if got.sum != twin.sum {
			return "", fmt.Errorf("%s: traced checksum %s, untraced %s", a.name, got.sum, twin.sum)
		}
		if got.sim != twin.sim {
			return "", fmt.Errorf("%s: traced simulated time %v, untraced %v", a.name, got.sim, twin.sim)
		}
		if err := checkFindings(a, got.reports); err != nil {
			return "", err
		}
		if w.full && got.observed != got.sim {
			return "", fmt.Errorf("%s: what-if all-observed replay %v, live %v", a.name, got.observed, got.sim)
		}
		// The finished report alone, plus every in-run diagnostic.
		h.Write(got.final)
		for _, r := range got.reports {
			var js bytes.Buffer
			if err := r.JSON(&js); err != nil {
				return "", err
			}
			h.Write(js.Bytes())
		}
		accesses += got.accesses
	}
	if w.accesses == 0 {
		w.accesses = accesses
	} else if accesses != w.accesses {
		return "", fmt.Errorf("traced %d accesses, the first op traced %d", accesses, w.accesses)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

func checkFindings(a app, reports []diag.Report) error {
	seen := map[want]bool{}
	n := 0
	for _, r := range reports {
		for _, f := range r.Findings {
			seen[want{f.Kind, f.Alloc}] = true
			n++
		}
	}
	if a.clean && n > 0 {
		return fmt.Errorf("%s: %d findings, the paper reports none", a.name, n)
	}
	for _, x := range a.want {
		if !seen[x] {
			return fmt.Errorf("%s: no %s finding on %s", a.name, x.kind, x.alloc)
		}
	}
	return nil
}
