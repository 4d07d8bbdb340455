// Package adapt is the closed-loop adaptive placement controller: it
// turns the what-if engine's offline capture→predict→apply workflow into
// an online one. A Controller attached to a running context rotates
// capture windows on the simulated clock, closes each window at a
// kernel-launch drain boundary, advances an incremental what-if analysis
// (whatif.Incremental) over the window's events, and applies winning
// placements mid-run through cuda.Context.ApplyPlacement — behind
// hysteresis, so oscillating phases do not thrash migrations.
//
// The controller ranks candidates by *window-local* gain: the difference
// between what the observed run spent in the window and what a candidate
// placement would have spent in it (deltas of the cumulative predictions
// between consecutive windows). That is what makes it phase-aware — a
// placement that lost the whole-run ranking can win the current phase,
// and vice versa — where whole-run gains wash phase changes out.
//
// Everything runs at drain boundaries, off the per-element trace hot
// path: the only per-launch cost is a nil-check and a clock compare.
package adapt

import (
	"fmt"
	"io"
	"sort"

	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/timeline"
	"xplacer/internal/um"
	"xplacer/internal/whatif"
)

// Config tunes the controller.
type Config struct {
	// Window is the minimum simulated time between analyses; a window
	// closes at the first kernel-launch drain boundary past it. <= 0 means
	// DefaultWindow.
	Window machine.Duration
	// MinGainPct is the hysteresis threshold: a candidate must predict at
	// least this percentage of the window's observed time as saving to
	// count. < 0 means 0 (any predicted gain counts); 0 means
	// DefaultMinGainPct.
	MinGainPct float64
	// Confirm is the number of consecutive windows the same candidate must
	// win (above threshold) before it is applied. < 1 means
	// DefaultConfirm.
	Confirm int
	// Cooldown is the number of windows a label is frozen after a
	// placement was applied to it. < 0 means 0; 0 means DefaultCooldown.
	Cooldown int
	// Workers sets the candidate-replay worker pool size (< 1 means
	// GOMAXPROCS). The decision log is byte-identical across worker
	// counts.
	Workers int
}

// Controller defaults.
const (
	DefaultWindow     = 2 * machine.Millisecond
	DefaultMinGainPct = 3.0
	DefaultConfirm    = 2
	DefaultCooldown   = 2
)

func (cfg Config) withDefaults() Config {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MinGainPct == 0 {
		cfg.MinGainPct = DefaultMinGainPct
	} else if cfg.MinGainPct < 0 {
		cfg.MinGainPct = 0
	}
	if cfg.Confirm < 1 {
		cfg.Confirm = DefaultConfirm
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	} else if cfg.Cooldown < 0 {
		cfg.Cooldown = 0
	}
	return cfg
}

// Decision is one hysteresis-relevant entry of the decision log: a
// candidate above threshold confirming, being applied, or being blocked
// by a cooldown. Windows where a label's best candidate is the current
// placement or below threshold log nothing.
type Decision struct {
	Window int    `json:"window"`
	Label  string `json:"label"`
	// Policy is the winning candidate placement for the window.
	Policy string `json:"policy"`
	// GainPct is the candidate's predicted saving as a percentage of the
	// window's observed time.
	GainPct float64 `json:"gain_pct"`
	// PredDelta is the candidate's predicted absolute saving over the
	// window (positive = faster than observed).
	PredDelta machine.Duration `json:"pred_delta_ps"`
	// Action is "confirm" (streak building), "apply" (placement changed),
	// or "cooldown" (won but frozen after a recent change).
	Action string `json:"action"`
	// Streak is the confirmation streak after this window; CooldownLeft
	// the remaining frozen windows (cooldown entries only).
	Streak       int `json:"streak,omitempty"`
	CooldownLeft int `json:"cooldown_left,omitempty"`
}

// Window summarizes one closed capture window.
type Window struct {
	Index int `json:"index"`
	// Start and End delimit the window on the simulated timeline (replay
	// totals at the previous and this close).
	Start machine.Duration `json:"start_ps"`
	End   machine.Duration `json:"end_ps"`
	// Events is the number of timeline events the window ingested.
	Events int `json:"events"`
	// Observed is the window's observed duration (End - Start).
	Observed  machine.Duration `json:"observed_ps"`
	Decisions []Decision       `json:"decisions,omitempty"`
}

// Report is the controller's run summary: configuration, per-window
// decision log, and the final applied placements.
type Report struct {
	WindowLen  machine.Duration `json:"window_ps"`
	MinGainPct float64          `json:"min_gain_pct"`
	Confirm    int              `json:"confirm"`
	Cooldown   int              `json:"cooldown"`
	Windows    []Window         `json:"windows"`
	// Applied maps each label the controller changed to its final policy;
	// Switches counts every mid-run placement change.
	Applied  map[string]string `json:"applied,omitempty"`
	Switches int               `json:"switches"`
}

// hysteresis is one label's debouncing state machine: a candidate must
// beat the threshold for Confirm consecutive windows to be applied, and
// an applied label is frozen for Cooldown windows.
type hysteresis struct {
	current   string // applied policy ("" = the program's own placement)
	candidate string
	streak    int
	cooldown  int
}

// action is what one hysteresis step decided.
type action int

const (
	actNone action = iota
	actConfirm
	actApply
	actCooldown
)

// step feeds one window's winning candidate (best, at gainPct of the
// window's observed time) into the state machine and returns the action.
// A sub-threshold window, or one the current placement wins, resets the
// streak: Confirm means *consecutive* wins, so a placement is only
// applied when its signal persists across every window of the phase.
// (For that to work the window must be at least one workload step long —
// sub-step windows fragment a steady per-step signal into alternating
// win/quiet windows that can never confirm.)
func (h *hysteresis) step(best string, gainPct, minGain float64, confirm, cooldown int) action {
	if h.cooldown > 0 {
		h.cooldown--
		if best != h.current && gainPct >= minGain {
			return actCooldown
		}
		return actNone
	}
	if best == h.current || gainPct < minGain {
		h.candidate, h.streak = "", 0
		return actNone
	}
	if best == h.candidate {
		h.streak++
	} else {
		h.candidate, h.streak = best, 1
	}
	if h.streak >= confirm {
		h.current = best
		h.candidate, h.streak = "", 0
		h.cooldown = cooldown
		return actApply
	}
	return actConfirm
}

// predKey identifies one (allocation, candidate policy) cumulative
// prediction across windows.
type predKey struct {
	alloc  int
	policy string
}

// Controller is the attached online controller of one run.
type Controller struct {
	ctx *cuda.Context
	cfg Config
	inc *whatif.Incremental

	consumed int              // timeline events already ingested
	nextTick machine.Duration // next window close (simulated clock)

	labels   map[string]*hysteresis
	prevObs  machine.Duration
	prevPred map[predKey]machine.Duration

	report Report
	last   *whatif.Result
	err    error
}

// Attach wires a controller onto the context: enables what-if capture,
// hooks the kernel-launch drain boundary, and starts the first window at
// the current simulated time. Attach before the workload allocates, so
// the captured trace starts at the first allocation.
func Attach(ctx *cuda.Context, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		ctx:      ctx,
		cfg:      cfg,
		inc:      whatif.NewIncremental(ctx.Platform(), cfg.Workers),
		nextTick: ctx.Now() + cfg.Window,
		labels:   make(map[string]*hysteresis),
		prevPred: make(map[predKey]machine.Duration),
		report: Report{
			WindowLen:  cfg.Window,
			MinGainPct: cfg.MinGainPct,
			Confirm:    cfg.Confirm,
			Cooldown:   cfg.Cooldown,
			Applied:    make(map[string]string),
		},
	}
	ctx.SetWhatIfCapture(true)
	ctx.SetLaunchHook(c.onLaunch)
	return c
}

// onLaunch is the drain-boundary hook: when the simulated clock passed
// the window tick, close the window here — after the launch's span was
// emitted, before the host proceeds.
func (c *Controller) onLaunch() {
	if c.err != nil {
		return
	}
	now := c.ctx.Now()
	if now < c.nextTick {
		return
	}
	for c.nextTick <= now {
		c.nextTick += c.cfg.Window
	}
	c.closeWindow(true)
}

// Finish closes the final window over the trailing events without
// applying anything (the run is over), detaches the launch hook, and
// returns the first error the controller hit, if any.
func (c *Controller) Finish() error {
	c.ctx.SetLaunchHook(nil)
	if c.err == nil {
		c.closeWindow(false)
	}
	return c.err
}

// Report returns the accumulated decision log.
func (c *Controller) Report() *Report { return &c.report }

// Result returns the incremental analysis's last snapshot — the full
// candidate ranking over everything captured so far — or nil before the
// first window closed.
func (c *Controller) Result() *whatif.Result { return c.last }

// closeWindow ingests the events since the last close, snapshots the
// incremental analysis, computes window-local gains, and (when apply is
// set) runs the hysteresis and applies winning placements.
func (c *Controller) closeWindow(apply bool) {
	evs := c.ctx.Timeline().EventsSince(c.consumed)
	if len(evs) == 0 && c.inc.Len() == 0 {
		return
	}
	c.consumed += len(evs)
	c.inc.Ingest(evs)
	res, err := c.inc.Snapshot()
	if err != nil {
		c.err = err
		return
	}
	c.last = res
	w := Window{
		Index:    len(c.report.Windows),
		Start:    c.prevObs,
		End:      res.Observed,
		Events:   len(evs),
		Observed: res.Observed - c.prevObs,
	}
	obsDelta := w.Observed

	// Window-local gains per (label, policy): the cumulative-prediction
	// delta of each candidate over the window, against the observed
	// delta. Allocations sharing a label (re-created temporaries) sum;
	// allocations created inside the window enter with their creation-time
	// baseline (their replay tracked the observed run exactly before it).
	type labelBest struct {
		place um.Placement
		gain  machine.Duration
	}
	gains := make(map[string]map[um.Placement]machine.Duration)
	var order []string
	for _, ar := range res.Allocs {
		for _, cand := range ar.Candidates {
			if cand.Placement == um.PlaceObserved {
				continue
			}
			key := predKey{ar.AllocID, cand.Policy}
			prev, ok := c.prevPred[key]
			if !ok {
				prev = c.prevObs
			}
			c.prevPred[key] = cand.Predicted
			if !cand.Applicable || cand.Placement == um.PlaceExplicit {
				// Explicit copy cannot be applied mid-run (and is
				// predict-only on host-accessed data anyway).
				continue
			}
			g := obsDelta - (cand.Predicted - prev)
			lg, ok := gains[ar.Label]
			if !ok {
				lg = make(map[um.Placement]machine.Duration)
				gains[ar.Label] = lg
				order = append(order, ar.Label)
			}
			lg[cand.Placement] += g
		}
	}
	c.prevObs = res.Observed

	if apply && obsDelta > 0 {
		for _, label := range order {
			lg := gains[label]
			best := labelBest{place: um.PlaceObserved}
			for _, p := range um.Placements() {
				g, ok := lg[p]
				if !ok {
					continue
				}
				if best.place == um.PlaceObserved || g > best.gain {
					best = labelBest{place: p, gain: g}
				}
			}
			if best.place == um.PlaceObserved {
				continue
			}
			gainPct := 100 * float64(best.gain) / float64(obsDelta)
			st := c.labels[label]
			if st == nil {
				st = &hysteresis{}
				c.labels[label] = st
			}
			act := st.step(best.place.String(), gainPct, c.cfg.MinGainPct, c.cfg.Confirm, c.cfg.Cooldown)
			if act == actNone {
				continue
			}
			d := Decision{
				Window:    w.Index,
				Label:     label,
				Policy:    best.place.String(),
				GainPct:   gainPct,
				PredDelta: best.gain,
			}
			switch act {
			case actConfirm:
				d.Action, d.Streak = "confirm", st.streak
			case actCooldown:
				d.Action, d.CooldownLeft = "cooldown", st.cooldown
			case actApply:
				d.Action, d.Streak = "apply", c.cfg.Confirm
				if err := c.ctx.ApplyPlacement(label, best.place); err != nil {
					c.err = fmt.Errorf("adapt: window %d: %w", w.Index, err)
					return
				}
				c.report.Applied[label] = best.place.String()
				c.report.Switches++
			}
			w.Decisions = append(w.Decisions, d)
		}
	}

	c.ctx.Timeline().Emit(timeline.Event{
		Kind:    timeline.KindWindow,
		Name:    "adapt window",
		Track:   timeline.HostTrack,
		Start:   c.ctx.Now(),
		AllocID: -1,
		Detail:  fmt.Sprintf("window %d: %d events, %d decisions", w.Index, w.Events, len(w.Decisions)),
	})
	c.report.Windows = append(c.report.Windows, w)
}

// Text renders the decision log as a table, in the style of the what-if
// report.
func (r *Report) Text(out io.Writer) {
	fmt.Fprintf(out, "adaptive placement: window %s, threshold %.1f%%, confirm %d, cooldown %d\n",
		r.WindowLen, r.MinGainPct, r.Confirm, r.Cooldown)
	for _, w := range r.Windows {
		fmt.Fprintf(out, "  window %d  [%s .. %s]  %d events\n", w.Index, w.Start, w.End, w.Events)
		for _, d := range w.Decisions {
			extra := ""
			switch d.Action {
			case "confirm":
				extra = fmt.Sprintf(" (streak %d)", d.Streak)
			case "cooldown":
				extra = fmt.Sprintf(" (%d windows left)", d.CooldownLeft)
			}
			fmt.Fprintf(out, "    %-8s %-24s -> %-14s gain %6.1f%% (%s)%s\n",
				d.Action, d.Label, d.Policy, d.GainPct, d.PredDelta, extra)
		}
	}
	if len(r.Applied) == 0 {
		fmt.Fprintf(out, "  no placements changed (%d windows)\n", len(r.Windows))
		return
	}
	fmt.Fprintf(out, "  %d placement change(s); final:\n", r.Switches)
	for _, label := range sortedKeys(r.Applied) {
		fmt.Fprintf(out, "    %-24s %s\n", label, r.Applied[label])
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
