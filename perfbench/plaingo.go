package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
	"unsafe"

	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
	"xplacer/xplrt"
)

// plaingoWL is plaingo-scoped: a plain-Go program traced with xplrt,
// shaped like examples/plaingo but scaled past the shadow table's
// linear-search cutoff. The CPU role initializes the inputs through
// scope-less TraceW (the engine's slot path); the GPU role runs in
// OnDevice scopes, first a contiguous stencil whose reads and writes
// coalesce in the scope's Buffer, then a seeded random gather that does
// not. The untraced twin runs the same loops on plain slices.
type plaingoWL struct {
	n, slices, sweeps int
	init              [][]float64 // seeded input values, one row per input slice
	gather            []int32     // seeded flat indices into the inputs

	slotAccesses, scopedAccesses int64
}

func newPlaingo(sz sizes, seed int64) *plaingoWL {
	rng := rand.New(rand.NewSource(seed))
	w := &plaingoWL{n: sz.pgLen, slices: sz.pgSlices / 2, sweeps: sz.pgSweeps}
	w.init = make([][]float64, w.slices)
	for k := range w.init {
		w.init[k] = make([]float64, w.n)
		for i := range w.init[k] {
			w.init[k][i] = rng.Float64()
		}
	}
	w.gather = make([]int32, sz.pgGather)
	for j := range w.gather {
		w.gather[j] = int32(rng.Intn(w.slices * w.n))
	}
	// init writes, the scale write, 8 CPU reads and the scale update;
	// per sweep and slice a scale read, a read sweep and a write sweep;
	// the gather's reads and its one write per 64 reads.
	w.slotAccesses = int64(w.slices*w.n) + 10
	w.scopedAccesses = int64(w.sweeps*w.slices*(1+2*w.n)) + int64(len(w.gather)+len(w.gather)/64)
	return w
}

// xplrtSink forwards xplrt's drained batches to the current traced op's
// capture. xplrt's runtime is process-global and keeps its sinks across
// Reset, so the sink is attached once and pointed at each op's capture.
var xplrtSink struct {
	once sync.Once
	sink switchSink
}

type switchSink struct{ c *capture }

// Apply implements record.Sink.
func (s *switchSink) Apply(b []shadow.Access, cur *record.Cursor) {
	if s.c != nil {
		s.c.Apply(b, cur)
	}
}

func (w *plaingoWL) accesses() int64 { return w.slotAccesses + w.scopedAccesses }

func (w *plaingoWL) endToEnd(p *pairs) map[string]float64 { return programEndToEnd(p, w.accesses()) }

// layers reads the plain twin's time, which the residue leaves out like
// the simulator's, and xplrt's cost per traced access: the traced
// program's time before its report less the plain twin's, from the
// untraced half.
func (w *plaingoWL) layers(a, _ *pairs) sample {
	return sample{
		"cuda.untraced_ms": median(a.tMs),
		"xplrt.trace_ns":   (median(a.mMs) - median(a.report) - median(a.tMs)) * 1e6 / float64(w.accesses()),
	}
}

// plaingoOut is an op's result: the program's numeric checksum and the
// xplrt report.
type plaingoOut struct {
	sum    string
	report diag.Report
}

// program is one op's data: input and output slices, the gather
// results, and the scale scalar both roles share.
type program struct {
	in     [][]float64
	out    [][]float64
	gather []float64
	scale  *float64
}

func (w *plaingoWL) alloc(make1 func(n int, label string) []float64, newScale func() *float64) *program {
	p := &program{in: make([][]float64, w.slices), out: make([][]float64, w.slices)}
	for k := range p.in {
		p.in[k] = make1(w.n, fmt.Sprintf("in%03d", k))
		p.out[k] = make1(w.n, fmt.Sprintf("out%03d", k))
	}
	p.gather = make1(len(w.gather)/64, "gathered")
	p.scale = newScale()
	return p
}

func (p *program) checksum(cpu float64) string {
	total := cpu + *p.scale
	for _, xs := range [][][]float64{p.in, p.out, {p.gather}} {
		for _, x := range xs {
			for _, v := range x {
				total += v
			}
		}
	}
	return f64(total)
}

func (w *plaingoWL) twin() (*opOut, error) {
	p := w.alloc(func(n int, _ string) []float64 { return make([]float64, n) }, func() *float64 { return new(float64) })
	tmp := make([]float64, w.n)
	for k, row := range w.init {
		copy(p.in[k], row)
	}
	*p.scale = 0.5
	for sw := 0; sw < w.sweeps; sw++ {
		src, dst := p.in, p.out
		if sw%2 == 1 {
			src, dst = p.out, p.in
		}
		for k := range src {
			sc := *p.scale
			copy(tmp, src[k])
			d := dst[k]
			for i := range d {
				d[i] = avg3(tmp, i, sc)
			}
		}
	}
	acc := 0.0
	for j, idx := range w.gather {
		acc += p.in[int(idx)/w.n][int(idx)%w.n]
		if j%64 == 63 {
			p.gather[j/64] = acc
			acc = 0
		}
	}
	cpu := 0.0
	for i := 0; i < 8; i++ {
		cpu += p.out[0][i]
	}
	*p.scale *= 1.1
	return &opOut{data: plaingoOut{sum: p.checksum(cpu)}}, nil
}

// avg3 is the stencil: the three-point average around tmp[i], scaled.
func avg3(tmp []float64, i int, sc float64) float64 {
	l, r := tmp[max(i-1, 0)], tmp[min(i+1, len(tmp)-1)]
	return sc * (l + tmp[i] + r) / 3
}

// allocOf describes a traced slice for the layer ladder's shadow table.
func allocOf(xs []float64) wire.AllocInfo {
	return wire.AllocInfo{Base: memsim.Addr(uintptr(unsafe.Pointer(&xs[0]))), Size: int64(len(xs)) * 8, Kind: memsim.Managed}
}

// prepare drops the previous op's registrations and shadow table, so the
// measured side's live heap counts its own.
func (w *plaingoWL) prepare(bool) error {
	xplrt.Reset()
	return nil
}

// measured runs the program traced; prepare has reset xplrt.
func (w *plaingoWL) measured(tr *tracer) (*opOut, error) {
	var c *capture
	if tr != nil {
		xplrtSink.once.Do(func() { xplrt.AddSink(&xplrtSink.sink) })
		c = &capture{}
		xplrtSink.sink.c = c
		defer func() { xplrtSink.sink.c = nil }()
	}
	var p *program
	spanned(tr, "xplrt.register", func() {
		p = w.alloc(xplrt.Slice[float64], func() *float64 { return xplrt.New[float64]("scale") })
	})
	if c != nil {
		for _, xs := range append(append(append([][]float64(nil), p.in...), p.out...), p.gather) {
			c.allocs = append(c.allocs, allocOf(xs))
		}
		c.allocs = append(c.allocs, allocOf(unsafe.Slice(p.scale, 1)))
	}

	// CPU role, no scope: the slot path.
	spanned(tr, "xplrt.cpu", func() {
		for k, row := range w.init {
			dst := p.in[k]
			for i, v := range row {
				*xplrt.TraceW(&dst[i]) = v
			}
		}
		*xplrt.TraceW(p.scale) = 0.5
	})
	spanned(tr, "xplrt.flush", xplrt.Flush)

	// GPU role: the stencil sweeps, then the random gather.
	tmp := make([]float64, w.n)
	spanned(tr, "xplrt.ondevice", func() {
		xplrt.OnDevice(xplrt.GPU, func(s *xplrt.DeviceScope) {
			for sw := 0; sw < w.sweeps; sw++ {
				src, dst := p.in, p.out
				if sw%2 == 1 {
					src, dst = p.out, p.in
				}
				for k := range src {
					sc := *xplrt.ScopeR(s, p.scale)
					row := src[k]
					for i := range row {
						tmp[i] = *xplrt.ScopeR(s, &row[i])
					}
					d := dst[k]
					for i := range d {
						*xplrt.ScopeW(s, &d[i]) = avg3(tmp, i, sc)
					}
				}
			}
		})
	})
	spanned(tr, "xplrt.ondevice", func() {
		xplrt.OnDevice(xplrt.GPU, func(s *xplrt.DeviceScope) {
			acc := 0.0
			for j, idx := range w.gather {
				acc += *xplrt.ScopeR(s, &p.in[int(idx)/w.n][int(idx)%w.n])
				if j%64 == 63 {
					*xplrt.ScopeW(s, &p.gather[j/64]) = acc
					acc = 0
				}
			}
		})
	})

	// CPU role again: read back a few outputs and update the shared
	// scale, the alternating access the report must flag.
	cpu := 0.0
	for i := 0; i < 8; i++ {
		cpu += *xplrt.TraceR(&p.out[0][i])
	}
	*xplrt.TraceRW(p.scale) *= 1.1

	t0 := time.Now()
	var rep diag.Report
	spanned(tr, "xplrt.report", func() { rep = xplrt.Report() })
	var js bytes.Buffer
	var err error
	spanned(tr, "report.json", func() { err = rep.JSON(&js) })
	if err != nil {
		return nil, err
	}
	out := &opOut{report: time.Since(t0), data: plaingoOut{sum: p.checksum(cpu), report: rep}}
	if tr != nil {
		out.captures = []*capture{c}
		out.layers = sample{
			"xplrt.report_ms": tr.opTotal("xplrt.report"),
			"diag.findings":   float64(len(rep.Findings)),
			"_n_scalar":       float64(w.slotAccesses),
			"_n_range":        0,
			"_n_buffer":       float64(w.scopedAccesses),
		}
		out.layers["_analysis_ms"] = out.layers["xplrt.report_ms"] + tr.opTotal("report.json")
	}
	return out, nil
}

func (w *plaingoWL) check(m, t *opOut) (string, error) {
	mo, to := m.data.(plaingoOut), t.data.(plaingoOut)
	if mo.sum != to.sum {
		return "", fmt.Errorf("traced checksum %s, untraced %s", mo.sum, to.sum)
	}
	found := false
	for _, f := range mo.report.Findings {
		found = found || (f.Kind == detect.AlternatingAccess && f.Alloc == "scale")
	}
	if !found {
		return "", fmt.Errorf("no alternating-access finding on the shared scalar")
	}
	// The table orders entries by heap address, which varies between
	// runs; the digest orders them by label so equal reports digest
	// equally.
	rep := mo.report
	rep.Allocs = append([]diag.AllocSummary(nil), rep.Allocs...)
	sort.SliceStable(rep.Allocs, func(i, j int) bool { return rep.Allocs[i].Label < rep.Allocs[j].Label })
	rep.Findings = append([]detect.Finding(nil), rep.Findings...)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		return a.Alloc < b.Alloc || (a.Alloc == b.Alloc && a.Kind < b.Kind)
	})
	var js bytes.Buffer
	if err := rep.JSON(&js); err != nil {
		return "", err
	}
	sum := sha256.Sum256(js.Bytes())
	return hex.EncodeToString(sum[:16]), nil
}
