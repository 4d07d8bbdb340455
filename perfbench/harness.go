package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// sizes fixes every workload's problem size. fullSizes is what the
// benchmark measures; the self-tests run tinySizes.
type sizes struct {
	luleshSize, luleshSteps int

	backpropIn, gaussianN, cfdCells, ludN, nnRecords int
	pfCols, pfRows, pfPyramid                        int

	// plaingo-scoped: pgSlices traced slices of pgLen float64 (half
	// inputs, half outputs), pgSweeps stencil sweeps, pgGather random reads.
	pgSlices, pgLen, pgSweeps, pgGather int
}

var fullSizes = sizes{
	luleshSize: 8, luleshSteps: 16,
	backpropIn: 8192, gaussianN: 128, cfdCells: 2048, ludN: 96, nnRecords: 65536,
	pfCols: 1024, pfRows: 101, pfPyramid: 20,
	pgSlices: 256, pgLen: 2048, pgSweeps: 4, pgGather: 1 << 18,
}

// setupReps is how many times a gated run sets its workload up; setup_s
// is the median, so one slow set-up (a cold heap, a noisy neighbour)
// does not move it.
const setupReps = 5

type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration
	traced   bool
	sizes    sizes
}

// opOut is one side of an op as the workload reports it.
type opOut struct {
	// report is the time the measured program side spent building its
	// finished report after the program returned (inside the op).
	report time.Duration
	// snaps are the polled fleet round's /snapshot requests.
	snaps []snapshotReq
	// captures are the traced op's drained batches, for the layer ladder.
	captures []*capture
	// layers holds the traced op's per-layer values; keys starting with
	// "_" are inputs to the residue, not printed.
	layers sample
	// data is the workload's own output, read by check.
	data any
}

// sample is one traced op's per-layer values by metric name.
type sample map[string]float64

// workload is one input set built from a seed. An op is a pair run back
// to back, in alternating order: the measured side (the traced program
// through its finished report, or the polled fleet round) and its twin
// (the untraced program, or the unpolled round).
type workload interface {
	// prepare runs before each measured side, outside its timed region
	// and before its live-heap baseline; traced is set in the traced
	// half of a traced run.
	prepare(traced bool) error
	// measured runs the op's measured side; tr is nil with benchmark
	// tracing off.
	measured(tr *tracer) (*opOut, error)
	// twin runs the op's pair partner.
	twin() (*opOut, error)
	// check validates a pair's outputs and returns the report digest.
	check(m, t *opOut) (string, error)
	// endToEnd reduces a run's ops to the workload's readings of
	// op_p50_ms, overhead_x, records_per_s, snapshot_p50_ms and
	// alloc_mb_per_op. A gated run prints overhead_x and
	// alloc_mb_per_op; the traced run prints the three absolute-time
	// readings of its untraced half as bench.* per-layer metrics.
	endToEnd(p *pairs) map[string]float64
	// layers gives the per-layer values only the workload can read, from
	// a traced run's untraced half a and traced half b. Its
	// cuda.untraced_ms is the part of the measured side the residue
	// leaves out, because no recording layer runs in it.
	layers(a, b *pairs) sample
}

// pairs collects a run's op results.
type pairs struct {
	attempted, failed int
	digest            string

	// Per op: the measured side's and the twin's wall time, their ratio,
	// the measured side's report time, the heap each side allocated, and
	// the heap the measured side left in use (ms, ms, x, ms, MB, MB, MB).
	mMs, tMs, ratio, report, alloc, tAlloc, live []float64
	// Every /snapshot request of the polled fleet rounds.
	snaps   []snapshotReq
	samples []sample
}

// side runs f with garbage collected first and measures its wall time
// and the heap bytes it allocated. With withLive it also measures the
// heap f leaves in use: the live heap after f, its output still
// referenced, less the live heap before f. Only the wall time covers f;
// the collections and the heap readings sit outside it.
func side(f func() (*opOut, error), withLive bool) (out *opOut, d time.Duration, alloc uint64, live float64, err error) {
	var ms runtime.MemStats
	settle := func() uint64 {
		// The first collection moves sync.Pool caches to their victim
		// lists and the second frees them, so pooled scratch is not live.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	if withLive {
		base = settle()
	} else {
		runtime.GC()
		runtime.ReadMemStats(&ms)
	}
	before := ms.TotalAlloc
	t0 := time.Now()
	out, err = f()
	d = time.Since(t0)
	runtime.ReadMemStats(&ms)
	alloc = ms.TotalAlloc - before
	if withLive {
		live = float64(settle()) - float64(base)
	}
	runtime.KeepAlive(out)
	return out, d, alloc, live, err
}

// onePair runs op k and records it; seed and k choose which side goes
// first, so neither side always runs on a heap the other just left.
func (p *pairs) onePair(w workload, tr *tracer, seed int64, k int) {
	var (
		m, t          *opOut
		md, td        time.Duration
		alloc, tAlloc uint64
		live          float64
		errM, errT    error
		measuredFirst = (seed+int64(k))%2 == 0
	)
	runM := func() {
		if errM = w.prepare(tr != nil); errM != nil {
			return
		}
		m, md, alloc, live, errM = side(func() (*opOut, error) {
			defer tr.end(tr.begin("op"))
			return w.measured(tr)
		}, true)
	}
	runT := func() { t, td, tAlloc, _, errT = side(w.twin, false) }
	tr.setOp(k)
	if measuredFirst {
		runM()
		runT()
	} else {
		runT()
		runM()
	}
	p.attempted++
	fail := func(err error) {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", k, err)
	}
	if errM != nil {
		fail(errM)
		return
	}
	if errT != nil {
		fail(errT)
		return
	}
	digest, err := w.check(m, t)
	if err != nil {
		fail(err)
		return
	}
	if p.digest == "" {
		p.digest = digest
	} else if digest != p.digest {
		fail(fmt.Errorf("report digest %s differs from the first op's %s", digest, p.digest))
		return
	}
	ms, ts := float64(md)/1e6, float64(td)/1e6
	p.mMs = append(p.mMs, ms)
	p.tMs = append(p.tMs, ts)
	p.ratio = append(p.ratio, ms/ts)
	p.report = append(p.report, float64(m.report)/1e6)
	p.alloc = append(p.alloc, float64(alloc)/(1<<20))
	p.tAlloc = append(p.tAlloc, float64(tAlloc)/(1<<20))
	p.live = append(p.live, live/(1<<20))
	p.snaps = append(p.snaps, m.snaps...)
	if tr != nil {
		s := m.layers
		if s == nil {
			s = sample{}
		}
		if err := ladder(m.captures, s); err != nil {
			fail(err)
			return
		}
		s["_accounted_ms"] = accounted(s)
		p.samples = append(p.samples, s)
	}
}

// loop runs ops until the deadline, at least one.
func (p *pairs) loop(w workload, tr *tracer, seed int64, deadline time.Time) {
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		p.onePair(w, tr, seed, k)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary   summary
	digest    string
	spans     []span
	selfTimes []string
}

// endToEnd names the gated metrics and their units, in print order.
// Absolute op, throughput and snapshot times are not among them: on a
// shared VM they follow the machine's speed, which moves by more than
// any bound between runs of the same code (README.md). The traced run
// prints them.
var endToEnd = []struct{ name, unit string }{
	{"overhead_x", "x"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

func (p *pairs) endToEnd(w workload, setup float64) map[string]metric {
	vals := w.endToEnd(p)
	vals["live_heap_mb"] = median(p.live)
	vals["setup_s"] = setup
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: finite(vals[m.name]), Unit: m.unit}
	}
	return out
}

// programEndToEnd is the reduction of a workload whose measured side is
// a traced program through its finished report and whose twin is the
// same program untraced. records_per_s divides the traced accesses by
// the program's time before its report, and snapshot_p50_ms is the
// report build, so op_p50_ms is the only reading of the whole side.
func programEndToEnd(p *pairs, accesses int64) map[string]float64 {
	rps := make([]float64, 0, len(p.mMs))
	for i := range p.mMs {
		if prog := p.mMs[i] - p.report[i]; prog > 0 {
			rps = append(rps, float64(accesses)/prog*1e3)
		}
	}
	return map[string]float64{
		"op_p50_ms":       median(p.mMs),
		"overhead_x":      median(p.ratio),
		"records_per_s":   median(rps),
		"snapshot_p50_ms": median(p.report),
		"alloc_mb_per_op": median(p.alloc),
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// setUp builds the workload and runs one warm-up op, which also fixes the
// report digest every later op must reproduce.
func setUp(cfg runConfig, p *pairs) (workload, time.Duration, error) {
	t0 := time.Now()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, 0, err
	}
	warm := &pairs{}
	warm.onePair(w, nil, cfg.seed, 0)
	d := time.Since(t0)
	if warm.failed > 0 || (p.digest != "" && warm.digest != p.digest) {
		p.attempted++
		p.failed++
	}
	if p.digest == "" {
		p.digest = warm.digest
	}
	return w, d, nil
}

func run(cfg runConfig) (*result, error) {
	p := &pairs{}
	if !cfg.traced {
		var setups []float64
		var w workload
		for i := 0; i < setupReps; i++ {
			// Each set-up starts from a heap without the previous one's
			// workload; the collection sits outside the timed set-up.
			w = nil
			runtime.GC()
			var d time.Duration
			var err error
			w, d, err = setUp(cfg, p)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		p.loop(w, nil, cfg.seed, time.Now().Add(cfg.measure))
		return &result{
			summary: summary{
				Correct:   p.failed == 0 && p.attempted > 0,
				Attempted: p.attempted,
				Failed:    p.failed,
				Metrics:   p.endToEnd(w, median(setups)),
			},
			digest: p.digest,
		}, nil
	}

	// The traced run measures the workload twice in one process: first
	// with benchmark tracing off (the baseline for trace_overhead_pct and
	// the residue), then traced.
	w, _, err := setUp(cfg, p)
	if err != nil {
		return nil, err
	}
	half := cfg.measure / 2
	p.loop(w, nil, cfg.seed, time.Now().Add(half))
	tr := newTracer()
	q := &pairs{digest: p.digest}
	q.loop(w, tr, cfg.seed, time.Now().Add(half))
	attempted, failed := p.attempted+q.attempted, p.failed+q.failed
	return &result{
		summary: summary{
			Correct:   failed == 0 && attempted > 0,
			Attempted: attempted,
			Failed:    failed,
			Metrics:   perLayerMetrics(w, p, q),
		},
		digest:    q.digest,
		spans:     tr.spans,
		selfTimes: tr.selfTimes(),
	}, nil
}
