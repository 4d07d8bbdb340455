// Package core is XPlacer's top-level API. A Session bundles a simulated
// platform, a CUDA-like context, the instrumentation tracer, and the
// diagnostic configuration — the pieces a user of the original tool gets
// from including the XPlacer header, linking the runtime library, and
// adding #pragma xpl diagnostic points (paper §III-D).
package core

import (
	"io"
	"time"

	"xplacer/internal/cuda"
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/trace"
	"xplacer/internal/um"
)

// Session is one instrumented (or plain) simulated program run.
type Session struct {
	// Ctx is the CUDA-like runtime context all allocations and kernels go
	// through.
	Ctx *cuda.Context
	// Tracer is the instrumentation runtime; nil when the session is
	// uninstrumented (the "original version" of Table III).
	Tracer *trace.Tracer
	// Opt holds the anti-pattern detector thresholds.
	Opt detect.Options

	reports []diag.Report
	// intervalStart is the simulated time the current diagnostic interval
	// began (the previous Diagnostic call, or 0): the window findings are
	// attributed over.
	intervalStart machine.Duration
}

// Config is the resolved session construction state that Option values
// fold into; callers configure sessions with NewSession's options
// (WithoutInstrumentation, WithDetect) rather than building one directly.
type Config struct {
	// Instrument enables the tracer (default in NewSession).
	Instrument bool
	// Detect overrides the detector thresholds; zero value means defaults.
	Detect detect.Options
}

// Option adjusts session construction; see NewSession.
type Option func(*Config)

// WithoutInstrumentation creates the session without a tracer — the
// "original version" baseline of Table III.
func WithoutInstrumentation() Option {
	return func(c *Config) { c.Instrument = false }
}

// WithInstrumentation (re-)enables the tracer; it is the default and
// exists to make intent explicit at call sites that compute options.
func WithInstrumentation() Option {
	return func(c *Config) { c.Instrument = true }
}

// WithDetect overrides the anti-pattern detector thresholds.
func WithDetect(opt detect.Options) Option {
	return func(c *Config) { c.Detect = opt }
}

// NewSession creates a session on the platform — instrumented by default,
// adjusted by options:
//
//	s, err := core.NewSession(plat, core.WithoutInstrumentation())
//	s, err := core.NewSession(plat, core.WithDetect(opt))
func NewSession(plat *machine.Platform, opts ...Option) (*Session, error) {
	cfg := Config{Instrument: true}
	for _, o := range opts {
		o(&cfg)
	}
	return newSession(plat, cfg)
}

// NewPlainSession creates an uninstrumented session (no tracer), used as
// the overhead baseline of Table III. It is shorthand for
// NewSession(plat, WithoutInstrumentation()).
func NewPlainSession(plat *machine.Platform) (*Session, error) {
	return NewSession(plat, WithoutInstrumentation())
}

func newSession(plat *machine.Platform, cfg Config) (*Session, error) {
	ctx, err := cuda.NewContext(plat)
	if err != nil {
		return nil, err
	}
	s := &Session{Ctx: ctx, Opt: cfg.Detect}
	if s.Opt == (detect.Options{}) {
		s.Opt = detect.DefaultOptions()
	}
	if cfg.Instrument {
		s.Tracer = trace.New()
		ctx.SetTracer(s.Tracer)
	}
	return s, nil
}

// MustSession is NewSession that panics on error (tests, examples).
func MustSession(plat *machine.Platform) *Session {
	s, err := NewSession(plat)
	if err != nil {
		panic(err)
	}
	return s
}

// Instrumented reports whether the session records shadow memory.
func (s *Session) Instrumented() bool { return s.Tracer != nil }

// Diagnostic is the #pragma xpl diagnostic analog: analyze the shadow
// memory, attribute the findings to the kernel spans of the interval,
// write the Fig. 4-style report to w (pass nil to suppress output), reset
// the interval state, and remember the report. On an uninstrumented
// session it is a no-op returning an empty report.
func (s *Session) Diagnostic(w io.Writer, title string) diag.Report {
	if s.Tracer == nil {
		return diag.Report{Title: title}
	}
	s.Ctx.MarkDiagnostic(title)
	r := diag.Analyze(s.Tracer.Table().Entries(), title, s.Opt)
	diag.Attribute(&r, s.Ctx.Timeline(), s.intervalStart, s.Ctx.Now())
	if w != nil {
		r.Text(w)
	}
	s.Tracer.Table().Reset()
	s.reports = append(s.reports, r)
	s.intervalStart = s.Ctx.Now()
	return r
}

// Reports returns every diagnostic computed so far, in order.
func (s *Session) Reports() []diag.Report { return s.reports }

// SimTime returns the current simulated time.
func (s *Session) SimTime() machine.Duration { return s.Ctx.Now() }

// UMStats returns the unified-memory driver statistics.
func (s *Session) UMStats() um.Stats { return s.Ctx.Driver().Stats() }

// RunResult captures one measured application run.
type RunResult struct {
	// SimTime is the simulated execution time (the quantity the paper's
	// speedup figures compare).
	SimTime machine.Duration
	// WallTime is the real time the simulation took (the quantity
	// Table III's overhead ratios compare).
	WallTime time.Duration
	// UM holds the driver statistics accumulated during the run.
	UM um.Stats
	// Reports are the diagnostics emitted during the run.
	Reports []diag.Report
}

// Run executes app within a fresh session on plat and measures it.
// instrument selects a traced or plain session.
func Run(plat *machine.Platform, instrument bool, app func(*Session) error) (RunResult, error) {
	s, err := newSession(plat, Config{Instrument: instrument})
	if err != nil {
		return RunResult{}, err
	}
	start := time.Now()
	if err := app(s); err != nil {
		return RunResult{}, err
	}
	return RunResult{
		SimTime:  s.SimTime(),
		WallTime: time.Since(start),
		UM:       s.UMStats(),
		Reports:  s.reports,
	}, nil
}
