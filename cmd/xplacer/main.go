// Command xplacer runs one of the benchmark applications under XPlacer
// instrumentation on a simulated heterogeneous platform and prints the
// diagnostics — the paper's §III-D workflow in one step.
//
// Usage:
//
//	xplacer -app lulesh     [-platform Intel+Pascal] [-size 8] [-steps 16] [-variant baseline] [-diag-every 1] [-csv]
//	xplacer -app lulesh-mp  [-size 65536] [-cycles 3] [-steps 10] [-analysis-steps 4] [-static managed] [-adapt]
//	xplacer -app sw         [-size 100] [-rotated] [-diag-every 0]
//	xplacer -app pathfinder [-cols 1024] [-rows 101] [-pyramid 20] [-overlap]
//	xplacer -app backprop|gaussian|lud|nn|cfd [-size N] [-optimize]
//
// The final diagnostic (summaries, access maps for -maps, a per-word
// access-frequency heat map for -heatmap, per-kernel access-pattern
// classes for -patterns, anti-pattern findings with remedies) is printed
// to stdout. -timeline exports the run's simulated
// event timeline as Chrome trace-format JSON (loadable in Perfetto or
// chrome://tracing); -fail-on makes the exit status reflect selected
// finding kinds, for CI gates; -whatif captures the run's access
// aggregates and replays them under candidate placements, predicting the
// best policy per allocation and the whole-run speedup of applying them;
// -adapt attaches the closed-loop controller, which re-runs that analysis
// incrementally every -adapt-window of simulated time and applies winning
// placements mid-run (decision log in the report, JSON key "adaptive").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"xplacer/internal/adapt"
	"xplacer/internal/advisor"
	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/rodinia"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/pipeline"
	"xplacer/internal/timeline"
	"xplacer/internal/whatif"
	"xplacer/internal/wire"
)

func main() {
	var (
		app       = flag.String("app", "lulesh", "application: lulesh, lulesh-mp, sw, pathfinder, backprop, gaussian, lud, nn, cfd")
		platName  = flag.String("platform", "Intel+Pascal", "platform: Intel+Pascal, Intel+Volta, IBM+Volta")
		size      = flag.Int("size", 8, "problem size (app-specific; lulesh-mp: element count, use e.g. 65536)")
		steps     = flag.Int("steps", 16, "lulesh timesteps (lulesh-mp: solve steps per cycle)")
		variant   = flag.String("variant", "baseline", "lulesh variant: baseline, readmostly, preferred, accessedby, dupdomain")
		cycles    = flag.Int("cycles", 3, "lulesh-mp: solve→analysis cycles")
		anaSteps  = flag.Int("analysis-steps", 4, "lulesh-mp: analysis sweeps per cycle")
		static    = flag.String("static", "", "lulesh-mp: whole-run placement: managed, preferred-gpu, preferred-cpu, read-mostly, accessed-by, explicit-copy")
		rotated   = flag.Bool("rotated", false, "sw: rotated matrix layout")
		overlap   = flag.Bool("overlap", false, "pathfinder: overlap transfers with compute")
		optimize  = flag.Bool("optimize", false, "backprop/gaussian: apply the diagnosed fixes")
		cols      = flag.Int("cols", 1024, "pathfinder columns")
		rows      = flag.Int("rows", 101, "pathfinder rows")
		pyramid   = flag.Int("pyramid", 20, "pathfinder pyramid height")
		diagEvery = flag.Int("diag-every", 0, "emit a diagnostic every N iterations (0: end only)")
		csv       = flag.Bool("csv", false, "emit the final report as CSV")
		jsonOut   = flag.Bool("json", false, "emit the final report as JSON")
		maps      = flag.String("maps", "", "also print access maps for this allocation label")
		heatmap   = flag.Bool("heatmap", false, "record per-word access frequencies and include the heat map in the final report")
		patterns  = flag.Bool("patterns", false, "classify per-kernel access patterns (sequential/strided/scatter/random) and include them in the final report")
		advise    = flag.Bool("advise", false, "derive placement recommendations from the final report")
		profile   = flag.Bool("profile", false, "print the simulated-time breakdown and per-kernel profile")
		timelineF = flag.String("timeline", "", "export the event timeline as Chrome trace JSON to this file (view in Perfetto)")
		failOn    = flag.String("fail-on", "", "comma-separated finding kinds that make the exit status non-zero (e.g. alternating-cpu-gpu-access,unused-allocation)")
		whatIf    = flag.Bool("whatif", false, "capture the run's access aggregates and predict the best placement per allocation by replay")
		wiWorkers = flag.Int("whatif-workers", 0, "candidate-replay worker count for -whatif/-adapt (0: GOMAXPROCS)")
		adaptF    = flag.Bool("adapt", false, "attach the closed-loop controller: analyze capture windows online and apply winning placements mid-run")
		adaptWin  = flag.Duration("adapt-window", 2*time.Millisecond, "with -adapt: minimum simulated time per capture window")
		adaptThr  = flag.Float64("adapt-threshold", adapt.DefaultMinGainPct, "with -adapt: minimum predicted window gain (percent) before a placement counts toward confirmation")
		hmEpoch   = flag.Duration("heatmap-epoch", 0, "with -heatmap: close a heat-map epoch every interval of simulated time (e.g. 100us)")
		budget    = flag.Int("trace-budget", 0, "with -heatmap/-patterns: stream the trace to a temporary wire log through a queue of at most this many bytes (raised, like -stream-budget, to two segments: about 320 KiB) and replay the log through a fresh analysis pipeline for the final report; the replay keeps its own shadow table, 1 byte per traced word next to the heat map's 8 (0: unbounded, analyze live)")
		seed      = flag.Int64("seed", 1, "input seed")
		stream    = flag.String("stream", "", "stream the trace out-of-process to an xplagg aggregator: host:port dials TCP, file:PATH (or a plain path) writes a trace file for later ingest")
		streamTen = flag.String("stream-tenant", "default", "with -stream: tenant id in the stream handshake")
		streamPol = flag.String("stream-policy", "block", "with -stream: backpressure policy when the outbound queue is full: block (lose nothing) or drop (never stall, count losses)")
		streamBud = flag.Int("stream-budget", 0, "with -stream: outbound queue budget in bytes (0: default)")
	)
	flag.Parse()

	var failKinds []detect.Kind
	if *failOn != "" {
		for _, name := range strings.Split(*failOn, ",") {
			k, err := detect.KindByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			failKinds = append(failKinds, k)
		}
	}

	plat, err := machine.ByName(*platName)
	if err != nil {
		fatal(err)
	}
	s, err := core.NewSession(plat)
	if err != nil {
		fatal(err)
	}
	if *profile {
		s.Ctx.SetProfiling(true)
	}
	if *whatIf {
		s.Ctx.SetWhatIfCapture(true)
	}
	var ctrl *adapt.Controller
	if *adaptF {
		// The controller enables capture itself and closes windows at
		// kernel-launch drain boundaries from here on.
		ctrl = adapt.Attach(s.Ctx, adapt.Config{
			Window:     machine.Duration(adaptWin.Nanoseconds()) * machine.Nanosecond,
			MinGainPct: *adaptThr,
			Workers:    *wiWorkers,
		})
	}
	// pl is the run's analysis pipeline: the tracer's, or under
	// -trace-budget the one the trace log is replayed into. enable
	// attaches the analyses -heatmap and -patterns ask for, sampling
	// clock: the simulated clock live, the stream clock in the replay.
	// Pattern span start times then line up with the exported timeline.
	pl := s.Tracer.Pipeline()
	epoch := machine.Duration(hmEpoch.Nanoseconds()) * machine.Nanosecond
	enable := func(pl *pipeline.Pipeline, clock func() machine.Duration) {
		if *heatmap {
			pl.EnableHeatmap(epoch, clock)
		}
		if *patterns {
			pl.EnablePatterns(clock)
		}
	}
	var logFile *os.File
	var logSink *wire.StreamSink
	if *budget > 0 && (*heatmap || *patterns) {
		// Deferred-analysis mode: the heat map and classifier are not
		// built during the run. The trace goes out as an ordinary wire
		// stream to a temporary log through a queue capped at
		// -trace-budget bytes, and a fresh pipeline replays the log after
		// the run.
		logFile, err = os.CreateTemp("", "xplacer-trace-*.xplt")
		if err != nil {
			fatal(err)
		}
		defer os.Remove(logFile.Name())
		defer logFile.Close()
		logSink, err = wire.NewStreamSink(logFile, wire.Config{
			Hello:      wire.Hello{Process: *app, Platform: plat.Name},
			QueueBytes: *budget,
			Clock:      s.Ctx.Now,
		})
		if err != nil {
			fatal(err)
		}
		s.Tracer.EnableStream(logSink)
	} else {
		enable(pl, s.Ctx.Now)
	}

	var ss *wire.StreamSink
	var streamClose func() error
	if *stream != "" {
		var pol wire.Policy
		switch *streamPol {
		case "block":
			pol = wire.Block
		case "drop":
			pol = wire.Drop
		default:
			fatal(fmt.Errorf("unknown -stream-policy %q (want block or drop)", *streamPol))
		}
		var w io.WriteCloser
		switch {
		case strings.HasPrefix(*stream, "file:"):
			f, err := os.Create(strings.TrimPrefix(*stream, "file:"))
			if err != nil {
				fatal(err)
			}
			w = f
		case strings.Contains(*stream, ":"):
			conn, err := net.Dial("tcp", *stream)
			if err != nil {
				fatal(err)
			}
			w = conn
		default:
			f, err := os.Create(*stream)
			if err != nil {
				fatal(err)
			}
			w = f
		}
		ss, err = wire.NewStreamSink(w, wire.Config{
			Hello: wire.Hello{
				Tenant:   *streamTen,
				Process:  *app,
				Platform: plat.Name,
				Policy:   byte(pol),
			},
			Policy:     pol,
			QueueBytes: *streamBud,
			Clock:      s.Ctx.Now,
		})
		if err != nil {
			fatal(err)
		}
		s.Tracer.EnableStream(ss)
		streamClose = func() error {
			if err := ss.Close(); err != nil {
				return err
			}
			return w.Close()
		}
	}

	switch *app {
	case "lulesh":
		v, err := lulesh.VariantByName(*variant)
		if err != nil {
			fatal(err)
		}
		res, err := lulesh.Run(s, lulesh.Config{
			Size: *size, Timesteps: *steps, Variant: v,
			DiagEvery: *diagEvery, DiagOut: os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("final origin energy: %g\n", res.FinalOriginEnergy)
	case "lulesh-mp":
		res, err := lulesh.RunMultiPhase(s, lulesh.MultiPhaseConfig{
			Elems: *size, Cycles: *cycles, SolveSteps: *steps, AnalysisSteps: *anaSteps,
			Static: lulesh.StaticPolicy(*static),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("final origin energy: %g, checksum: %g\n", res.FinalOriginEnergy, res.Checksum)
	case "sw":
		res, err := sw.Run(s, sw.Config{
			N: *size, M: *size, Seed: *seed, Rotated: *rotated,
			DiagEvery: *diagEvery, DiagOut: os.Stdout, Traceback: true,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("best score: %d at (%d,%d), path length %d\n", res.Score, res.EndI, res.EndJ, res.PathLen)
	case "pathfinder":
		res, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{
			Cols: *cols, Rows: *rows, Pyramid: *pyramid, Seed: *seed,
			Overlap: *overlap, DiagEvery: *diagEvery, DiagOut: os.Stdout,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("min path: %d in %d iterations\n", res.MinPath, res.Iterations)
	case "backprop":
		res, err := rodinia.RunBackprop(s, rodinia.BackpropConfig{In: *size, Hidden: 16, Seed: *seed, Optimize: *optimize})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("hidden sum: %g\n", res.HiddenSum)
	case "gaussian":
		res, err := rodinia.RunGaussian(s, rodinia.GaussianConfig{N: *size, Optimize: *optimize})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("x[0] = %g\n", res.X[0])
	case "lud":
		res, err := rodinia.RunLUD(s, rodinia.LUDConfig{N: *size, Seed: *seed, DiagEvery: *diagEvery, DiagOut: os.Stdout})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("LU[0] = %g, reconstruction error %g\n", res.LU[0], rodinia.LUDVerify(res.LU, *size, *seed))
	case "nn":
		res, err := rodinia.RunNN(s, rodinia.NNConfig{Records: *size, K: 5, QueryLat: 30, QueryLng: 90, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nearest distances: %v\n", res.Distances)
	case "cfd":
		res, err := rodinia.RunCFD(s, rodinia.CFDConfig{Cells: *size, Neighbors: 4, Iterations: 4, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("density sum: %g\n", res.DensitySum)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	if ctrl != nil {
		// Close the final window over the trailing events and detach; the
		// decision log rides in the report below.
		if err := ctrl.Finish(); err != nil {
			fatal(err)
		}
	}

	if logSink != nil {
		// Replay the log before the final diagnostic. The pipeline's own
		// table sees the alloc and free frames in order, so every access
		// resolves the way it did for the live table.
		s.Tracer.Flush()
		pl = pipeline.New()
		enable(pl, pl.Now)
		if err := replayLog(logSink, logFile, pl); err != nil {
			fatal(fmt.Errorf("trace log: %w", err))
		}
	}

	// Access maps before the final (resetting) diagnostic.
	if *maps != "" {
		printed := false
		for _, a := range s.Ctx.Space().Live() {
			if a.Label == *maps {
				if e := s.Tracer.Table().FindByID(a.ID); e != nil {
					for _, c := range []diag.MapCategory{diag.CPUWrites, diag.GPUWrites, diag.CPUReads, diag.GPUReads} {
						fmt.Println(diag.AccessMap(e, c, 64))
					}
					printed = true
				}
			}
		}
		if !printed {
			fmt.Fprintf(os.Stderr, "xplacer: no traced allocation labeled %q\n", *maps)
		}
	}

	rep := s.Diagnostic(nil, "end of run")
	// Diagnostic flushed the tracer, so the heat counts and pattern
	// streams are complete.
	pl.Summarize(&rep, plat)
	if *whatIf {
		// The diagnostic flushed the trailing host window, so the trace is
		// complete. The analysis rides in the report (JSON key "whatif").
		wi, err := whatif.AnalyzeParallel(s.Ctx.Timeline().Events(), plat, *wiWorkers)
		if err != nil {
			fatal(err)
		}
		rep.WhatIf = wi
	}
	if ctrl != nil {
		rep.Adaptive = ctrl.Report()
	}
	switch {
	case *jsonOut:
		if err := rep.JSON(os.Stdout); err != nil {
			fatal(err)
		}
	case *csv:
		rep.CSV(os.Stdout)
	default:
		rep.Text(os.Stdout)
	}
	if rep.WhatIf != nil && !*jsonOut && !*csv {
		rep.WhatIf.Text(os.Stdout)
	}
	if rep.Adaptive != nil && !*jsonOut && !*csv {
		rep.Adaptive.Text(os.Stdout)
	}
	if *advise {
		recs := advisor.Recommend(rep, advisor.DefaultOptions(plat))
		advisor.Annotate(recs, rep.WhatIf)
		advisor.AnnotateAdaptive(recs, rep.Adaptive)
		advisor.Render(os.Stdout, recs)
	}
	if *profile {
		timeline.Summarize(s.Ctx.Timeline().Events()).Text(os.Stdout, plat)
		s.Ctx.WriteKernelProfile(os.Stdout, *csv)
	}
	if *timelineF != "" {
		f, err := os.Create(*timelineF)
		if err != nil {
			fatal(err)
		}
		meta := map[string]string{"app": *app, "platform": plat.Name}
		if err := timeline.WriteChromeTrace(f, s.Ctx.Timeline().Events(), meta); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline: %d events written to %s\n", s.Ctx.Timeline().Len(), *timelineF)
	}
	if streamClose != nil {
		// The final diagnostic flushed the tracer, so every access batch is
		// already in the stream queue; Close cuts the tail segment, writes
		// the bye totals, and drains the writer.
		if err := streamClose(); err != nil {
			fatal(err)
		}
		if segs, recs, bytes := ss.Dropped(); segs > 0 {
			fmt.Fprintf(os.Stderr, "xplacer: stream dropped %d segment(s): %d records, %d bytes\n", segs, recs, bytes)
		}
	}

	fmt.Printf("simulated time on %s: %v\n", plat.Name, s.SimTime())

	if len(failKinds) > 0 {
		matched := 0
		for _, r := range s.Reports() {
			for _, f := range r.Findings {
				for _, k := range failKinds {
					if f.Kind == k {
						matched++
					}
				}
			}
		}
		if matched > 0 {
			fmt.Fprintf(os.Stderr, "xplacer: %d finding(s) matched -fail-on %s\n", matched, *failOn)
			os.Exit(2)
		}
	}
}

// replayLog closes the -trace-budget log's sink and replays the log
// into pl. A write error or any dropped segment is fatal: a short log
// would silently yield a different report.
func replayLog(ss *wire.StreamSink, f *os.File, pl *pipeline.Pipeline) error {
	if err := ss.Close(); err != nil {
		return err
	}
	if segs, recs, _ := ss.Dropped(); segs > 0 {
		return fmt.Errorf("dropped %d segment(s): %d records", segs, recs)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return wire.ReadStream(bufio.NewReader(f), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return pl.Handler(), nil },
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xplacer:", err)
	os.Exit(1)
}
