package agg_test

import (
	"bytes"
	"testing"

	"xplacer/internal/agg"
	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/rodinia"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/pipeline"
	"xplacer/internal/wire"
)

// apps the equivalence is pinned over: simulated-tracer programs whose
// memsim addresses are deterministic per run, so two separate sessions
// trace the same accesses. The -diag-every cases free temporaries and
// reset the table at mid-run diagnostics.
var equivApps = []struct {
	name string
	run  func(t *testing.T, s *core.Session)
}{
	{"sw", func(t *testing.T, s *core.Session) {
		if _, err := sw.Run(s, sw.Config{N: 24, M: 24, Seed: 1, Traceback: true}); err != nil {
			t.Fatal(err)
		}
	}},
	{"pathfinder", func(t *testing.T, s *core.Session) {
		if _, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{Cols: 64, Rows: 41, Pyramid: 10, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}},
	{"lulesh-diag-every", func(t *testing.T, s *core.Session) {
		if _, err := lulesh.Run(s, lulesh.Config{Size: 4, Timesteps: 4, DiagEvery: 1}); err != nil {
			t.Fatal(err)
		}
	}},
	{"pathfinder-diag-every", func(t *testing.T, s *core.Session) {
		if _, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{Cols: 64, Rows: 41, Pyramid: 10, Seed: 1, DiagEvery: 1}); err != nil {
			t.Fatal(err)
		}
	}},
	// Its parallel kernels drain in a different order from run to run,
	// so batch cuts and record order vary between the two sessions; only
	// the report must not.
	{"lulesh-mp", func(t *testing.T, s *core.Session) {
		if _, err := lulesh.RunMultiPhase(s, lulesh.MultiPhaseConfig{Elems: 4096, Cycles: 2, SolveSteps: 16, AnalysisSteps: 4}); err != nil {
			t.Fatal(err)
		}
	}},
}

// withoutTimeline renders r as JSON without what a trace cannot carry: the
// title and the kernel attribution, which needs the client's timeline.
func withoutTimeline(t *testing.T, r diag.Report, title string) []byte {
	t.Helper()
	r.Title = title
	r.Allocs = append([]diag.AllocSummary(nil), r.Allocs...)
	for i := range r.Allocs {
		r.Allocs[i].Kernels = nil
	}
	r.Findings = append(r.Findings[:0:0], r.Findings...)
	for i := range r.Findings {
		r.Findings[i].Kernels = nil
	}
	var buf bytes.Buffer
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inProcess runs the app the way cmd/xplacer does: heat map and
// classifier enabled on the tracer's pipeline, an end-of-run diagnostic,
// then Pipeline.Summarize. It returns every diagnostic's report and the
// final one as the aggregator would title it.
func inProcess(t *testing.T, name string, run func(*testing.T, *core.Session)) (reports []diag.Report, final []byte) {
	t.Helper()
	plat, err := machine.ByName("Intel+Pascal")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(plat)
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Tracer.Pipeline()
	pl.EnableHeatmap(0, s.Ctx.Now)
	pl.EnablePatterns(s.Ctx.Now)

	run(t, s)
	r := s.Diagnostic(nil, "end of run")
	pl.Summarize(&r, plat)
	return s.Reports(), withoutTimeline(t, r, "default/"+name)
}

// streamed traces the same app through a wire.StreamSink. It replays
// the captured stream through a reader pipeline, checking at each
// diagnostic frame that the pipeline holds the report of that
// diagnostic, and returns the aggregator's snapshot of the stream.
func streamed(t *testing.T, name string, run func(*testing.T, *core.Session), reports []diag.Report) []byte {
	t.Helper()
	plat, err := machine.ByName("Intel+Pascal")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(plat)
	if err != nil {
		t.Fatal(err)
	}
	var captured bytes.Buffer
	ss, err := wire.NewStreamSink(&captured, wire.Config{
		Hello: wire.Hello{Tenant: "default", Process: name, Platform: plat.Name},
		Clock: s.Ctx.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer.EnableStream(ss)

	run(t, s)
	s.Diagnostic(nil, "end of run")
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, recs, _ := ss.Dropped(); segs != 0 {
		t.Fatalf("block-policy stream dropped %d segments (%d records)", segs, recs)
	}

	reader := pipeline.New()
	h := reader.Handler()
	endInterval, seen := h.Diagnostic, 0
	h.Diagnostic = func(title string) {
		endInterval(title)
		if seen < len(reports) {
			want := withoutTimeline(t, reports[seen], title)
			if got := withoutTimeline(t, reader.Report(title, plat), title); !bytes.Equal(got, want) {
				t.Errorf("at diagnostic frame %d (%q) the reader holds\n%s\nwant the in-process report\n%s", seen, title, got, want)
			}
		}
		seen++
	}
	err = wire.ReadStream(bytes.NewReader(captured.Bytes()), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return h, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(reports) {
		t.Fatalf("stream carries %d diagnostic frames, the run made %d diagnostics", seen, len(reports))
	}

	g := agg.New()
	if err := g.Ingest(bytes.NewReader(captured.Bytes())); err != nil {
		t.Fatal(err)
	}
	p := g.Find("default", name)
	if p == nil {
		t.Fatalf("aggregator has no proc default/%s", name)
	}
	// Ingest applied every frame before it returned, so the Stats are
	// exact for the whole stream.
	rep := p.Report()
	_, records, _, clientDropped := p.Stats()
	_, sent := ss.Counts()
	if records != sent {
		t.Fatalf("aggregator applied %d records, client sent %d", records, sent)
	}
	if clientDropped != 0 {
		t.Fatalf("bye reported %d dropped records on a block-policy stream", clientDropped)
	}
	var buf bytes.Buffer
	if err := rep.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAggregationEquivalence pins the tentpole guarantee: an app traced
// through StreamSink → Aggregator produces byte-identical report JSON to
// the same app's last diagnostic in-process, and at every diagnostic
// frame a stream reader holds the report of that diagnostic.
func TestAggregationEquivalence(t *testing.T) {
	for _, app := range equivApps {
		t.Run(app.name, func(t *testing.T) {
			reports, want := inProcess(t, app.name, app.run)
			got := streamed(t, app.name, app.run, reports)
			if !bytes.Equal(want, got) {
				t.Fatalf("aggregated report differs from in-process report\n--- in-process ---\n%s\n--- aggregated ---\n%s", want, got)
			}
		})
	}
}

// TestTwoStreamsOneAggregator checks distinct (tenant, process) streams
// keep independent state in one aggregator: each proc's snapshot matches
// its own in-process run, even when the streams are ingested into the
// same instance.
func TestTwoStreamsOneAggregator(t *testing.T) {
	g := agg.New()
	for _, app := range equivApps {
		plat, _ := machine.ByName("Intel+Pascal")
		s, err := core.NewSession(plat)
		if err != nil {
			t.Fatal(err)
		}
		var captured bytes.Buffer
		ss, err := wire.NewStreamSink(&captured, wire.Config{
			Hello: wire.Hello{Tenant: "fleet", Process: app.name, Platform: plat.Name},
			Clock: s.Ctx.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Tracer.EnableStream(ss)
		app.run(t, s)
		s.Tracer.Flush()
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		if err := g.Ingest(bytes.NewReader(captured.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(g.Procs()); got != len(equivApps) {
		t.Fatalf("aggregator tracks %d procs, want %d", got, len(equivApps))
	}
	for _, app := range equivApps {
		p := g.Find("fleet", app.name)
		if p == nil {
			t.Fatalf("no proc fleet/%s", app.name)
		}
		rep := p.Report()
		if len(rep.Allocs) == 0 || rep.Heatmap == nil || rep.Patterns == nil {
			t.Fatalf("fleet/%s snapshot incomplete: %d allocs, heatmap %v, patterns %v",
				app.name, len(rep.Allocs), rep.Heatmap != nil, rep.Patterns != nil)
		}
	}
}
