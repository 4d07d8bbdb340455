// Package sw implements the Smith-Waterman local-alignment benchmark of
// paper §IV-B on the simulated CUDA runtime.
//
// The examined implementation allocates the score matrix H and the path
// matrix P with cudaMallocManaged, copies the two input strings into
// managed buffers, zeroes both matrices on the CPU, and computes the
// alignment with one GPU kernel per anti-diagonal (a wavefront). XPlacer's
// diagnostics on this code reveal two issues (Figs. 7 and 8):
//
//   - the CPU initializes the entire H matrix but only the boundary zeroes
//     are ever consumed, and
//   - each wavefront iteration accesses only a thin diagonal of the
//     matrices; in the row-major layout those cells sit on many different
//     pages (low access density), which makes large inputs page-fault
//     heavily once the matrices exceed GPU memory.
//
// The optimized variant stores the matrices diagonal-major ("rotated by 45
// degrees", §IV-B) so every iteration accesses contiguous memory, and can
// additionally initialize boundaries on the fly.
package sw

import (
	"fmt"
	"io"
	"math/rand"

	"xplacer/internal/core"
	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/um"
)

// Scoring constants (match/mismatch/gap), the classic Smith-Waterman
// parameterization used by the Rodinia-style CUDA implementations.
const (
	MatchScore    = 3
	MismatchScore = -3
	GapPenalty    = 2
)

// Path codes stored in P.
const (
	pathNone int32 = iota
	pathDiag
	pathUp
	pathLeft
)

// Config parameterizes one Smith-Waterman run.
type Config struct {
	// N and M are the lengths of the two input strings.
	N, M int
	// Rotated selects the optimized diagonal-major matrix layout.
	Rotated bool
	// OnTheFlyInit skips the CPU's full-matrix zeroing and materializes
	// boundary zeroes inside the kernel (optimization (1) of §IV-B).
	OnTheFlyInit bool
	// PreferGPU applies cudaMemAdviseSetPreferredLocation(GPU) to all
	// managed allocations, as the paper does on the Intel+Pascal system.
	PreferGPU bool
	// Seed makes the random input strings reproducible.
	Seed int64
	// DiagEvery > 0 emits a diagnostic after every DiagEvery-th wavefront
	// iteration (Fig. 8); a final diagnostic is always available to the
	// caller via the session.
	DiagEvery int
	// DiagOut receives diagnostic output; nil suppresses printing.
	DiagOut io.Writer
	// Traceback runs the CPU path reconstruction after the kernels.
	Traceback bool
	// StopAfter > 0 stops the run after that many wavefront iterations
	// (used by the per-iteration access-map figures).
	StopAfter int
	// ResetBefore > 0 resets the shadow memory right before the given
	// iteration, so that the shadow holds only that iteration's accesses
	// (paper Fig. 8 maps a single iteration).
	ResetBefore int
}

// Result is the outcome of a run.
type Result struct {
	// Score is the best local-alignment score.
	Score int32
	// EndI, EndJ is the 1-based cell where the best alignment ends.
	EndI, EndJ int
	// PathLen is the traceback length (0 if Traceback was off).
	PathLen int
	// Iterations is the number of wavefront kernels launched.
	Iterations int
}

// alphabet for the synthetic molecular strings.
var alphabet = []byte("ACGT")

// RandomStrings generates the two input strings deterministically.
func RandomStrings(n, m int, seed int64) ([]byte, []byte) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]byte, n)
	b := make([]byte, m)
	for i := range a {
		a[i] = alphabet[rng.Intn(len(alphabet))]
	}
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return a, b
}

// Reference computes the Smith-Waterman score with a plain Go dynamic
// program, for correctness checks.
func Reference(a, b []byte) int32 {
	n, m := len(a), len(b)
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	var best int32
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			s := int32(MismatchScore)
			if a[i-1] == b[j-1] {
				s = MatchScore
			}
			v := prev[j-1] + s
			if up := prev[j] - GapPenalty; up > v {
				v = up
			}
			if left := cur[j-1] - GapPenalty; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// matrix abstracts the two storage layouts behind (i, j) cell indexing
// over the (N+1) x (M+1) score grid.
type matrix struct {
	n, m    int
	rotated bool
	a       *memsim.Alloc
	v       memsim.Int32View
	// diagOff[d] is the element offset of anti-diagonal d (i+j = d) in the
	// rotated layout; diagLo[d] is the smallest i on that diagonal.
	diagOff []int64
	diagLo  []int64
}

func newMatrix(a *memsim.Alloc, n, m int, rotated bool) *matrix {
	mx := &matrix{n: n, m: m, rotated: rotated, a: a, v: memsim.Int32s(a)}
	if rotated {
		mx.diagOff = make([]int64, n+m+2)
		mx.diagLo = make([]int64, n+m+2)
		off := int64(0)
		for d := 0; d <= n+m; d++ {
			lo := 0
			if d > m {
				lo = d - m
			}
			hi := d
			if hi > n {
				hi = n
			}
			mx.diagOff[d] = off
			mx.diagLo[d] = int64(lo)
			off += int64(hi - lo + 1)
		}
		mx.diagOff[n+m+1] = off
	}
	return mx
}

// cells returns the number of int32 cells the matrix needs.
func cells(n, m int) int64 { return int64(n+1) * int64(m+1) }

// index maps grid coordinates to the element offset in the chosen layout.
func (mx *matrix) index(i, j int) int64 {
	if !mx.rotated {
		return int64(i)*int64(mx.m+1) + int64(j)
	}
	d := i + j
	return mx.diagOff[d] + int64(i) - mx.diagLo[d]
}

func (mx *matrix) load(e memsim.Accessor, i, j int) int32 {
	return mx.v.Load(e, mx.index(i, j))
}

func (mx *matrix) store(e memsim.Accessor, i, j int, x int32) {
	mx.v.Store(e, mx.index(i, j), x)
}

// traceWave records the wavefront tap at cells (i0+k, j0-k), k in
// [0,count), as one strided trace range: in both layouts consecutive
// cells of an anti-diagonal sit a fixed element distance apart (1 when
// rotated, m when row-major), so the whole tap compacts into a single
// run-length-encoded record.
func (mx *matrix) traceWave(e *cuda.Exec, kind memsim.AccessKind, i0, j0, count int) {
	if count <= 0 {
		return
	}
	base := mx.index(i0, j0) * 4
	stride := int64(4)
	if count > 1 {
		stride = (mx.index(i0+1, j0-1) - mx.index(i0, j0)) * 4
	}
	e.TraceRange(kind, mx.a, base, count, stride, 4)
}

// Run executes Smith-Waterman on the session's simulated machine.
func Run(s *core.Session, cfg Config) (Result, error) {
	if cfg.N <= 0 || cfg.M <= 0 {
		return Result{}, fmt.Errorf("sw: string lengths must be positive, got %dx%d", cfg.N, cfg.M)
	}
	ctx := s.Ctx
	n, m := cfg.N, cfg.M
	aHost, bHost := RandomStrings(n, m, cfg.Seed)

	// Managed allocations for the four data elements (§IV-B).
	aBuf, err := ctx.MallocManaged(int64(n), "a")
	if err != nil {
		return Result{}, err
	}
	bBuf, err := ctx.MallocManaged(int64(m), "b")
	if err != nil {
		return Result{}, err
	}
	hAlloc, err := ctx.MallocManaged(cells(n, m)*4, "H")
	if err != nil {
		return Result{}, err
	}
	pAlloc, err := ctx.MallocManaged(cells(n, m)*4, "P")
	if err != nil {
		return Result{}, err
	}
	// best = (score, endI, endJ), updated by each kernel, read by the CPU.
	bestBuf, err := ctx.MallocManaged(3*4, "best")
	if err != nil {
		return Result{}, err
	}

	if cfg.PreferGPU {
		for _, a := range []*memsim.Alloc{aBuf, bBuf, hAlloc, pAlloc, bestBuf} {
			if err := ctx.Advise(a, um.AdviseSetPreferredLocation, machine.GPU); err != nil {
				return Result{}, err
			}
		}
	}

	// Contiguous host sweeps are traced as ranges up front; the element
	// stores go through the untraced pricing view, so the cost model and
	// its access order are untouched while the trace compacts.
	host := ctx.Host()
	qhost := host.NoTrace()
	av := memsim.Bytes(aBuf)
	bv := memsim.Bytes(bBuf)
	// Transfer the strings from the original storage (CPU writes).
	host.TraceRange(memsim.Write, aBuf, 0, n, 1, 1)
	for i := 0; i < n; i++ {
		av.Store(qhost, int64(i), aHost[i])
	}
	host.TraceRange(memsim.Write, bBuf, 0, m, 1, 1)
	for j := 0; j < m; j++ {
		bv.Store(qhost, int64(j), bHost[j])
	}

	h := newMatrix(hAlloc, n, m, cfg.Rotated)
	p := newMatrix(pAlloc, n, m, cfg.Rotated)

	if !cfg.OnTheFlyInit {
		// The CPU zeroes out the matrices — the whole of them, although
		// only the boundary zeroes will ever be consumed (Fig. 7).
		hv, pv := memsim.Int32s(hAlloc), memsim.Int32s(pAlloc)
		host.TraceRange(memsim.Write, hAlloc, 0, int(hv.Len()), 4, 4)
		for i := int64(0); i < hv.Len(); i++ {
			hv.Store(qhost, i, 0)
		}
		host.TraceRange(memsim.Write, pAlloc, 0, int(pv.Len()), 4, 4)
		for i := int64(0); i < pv.Len(); i++ {
			pv.Store(qhost, i, 0)
		}
	}

	best := memsim.Int32s(bestBuf)
	best.Store(host, 0, 0)
	best.Store(host, 1, 0)
	best.Store(host, 2, 0)

	res := Result{}
	boundary := func(e memsim.Accessor, i, j int) int32 {
		// On-the-fly initialization: boundary cells are known zero and
		// never read from memory.
		if cfg.OnTheFlyInit && (i == 0 || j == 0) {
			return 0
		}
		return h.load(e, i, j)
	}

	for d := 2; d <= n+m; d++ {
		lo := 1
		if d-m > lo {
			lo = d - m
		}
		hi := d - 1
		if hi > n {
			hi = n
		}
		if lo > hi {
			continue
		}
		if cfg.ResetBefore > 0 && res.Iterations+1 == cfg.ResetBefore && s.Tracer != nil {
			s.Tracer.Diagnostic("", s.Opt)
		}
		d := d // capture for the kernel closure
		ctx.LaunchSync(fmt.Sprintf("sw_wave_%d", d), func(e *cuda.Exec) {
			// The wavefront's per-cell taps are fixed strided sweeps over
			// the anti-diagonal; trace each as one range, then run the
			// cells through the untraced pricing view. All sweeps of one
			// kernel touch disjoint-or-read-only word sets against its
			// writes, so the per-word shadow sequences are unchanged.
			cnt := hi - lo + 1
			e.TraceRange(memsim.Read, aBuf, int64(lo-1), cnt, 1, 1)
			e.TraceRange(memsim.Read, bBuf, int64(d-hi-1), cnt, 1, 1)
			// On-the-fly initialization never loads boundary cells (i == 0
			// or j == 0); that trims the first and/or last element of the
			// three H taps.
			firstTrim, lastTrim := 0, 0
			if cfg.OnTheFlyInit {
				if lo == 1 {
					firstTrim = 1
				}
				if hi == d-1 {
					lastTrim = 1
				}
			}
			h.traceWave(e, memsim.Read, lo-1+firstTrim, d-lo-1-firstTrim, cnt-firstTrim-lastTrim) // (i-1, j-1)
			h.traceWave(e, memsim.Read, lo-1+firstTrim, d-lo-firstTrim, cnt-firstTrim)            // (i-1, j)
			h.traceWave(e, memsim.Read, lo, d-lo-1, cnt-lastTrim)                                 // (i, j-1)
			h.traceWave(e, memsim.Write, lo, d-lo, cnt)
			p.traceWave(e, memsim.Write, lo, d-lo, cnt)
			q := e.NoTrace()
			var kBest, kI, kJ int32
			for i := lo; i <= hi; i++ {
				j := d - i
				sc := int32(MismatchScore)
				if av.Load(q, int64(i-1)) == bv.Load(q, int64(j-1)) {
					sc = MatchScore
				}
				v := boundary(q, i-1, j-1) + sc
				dir := pathDiag
				if up := boundary(q, i-1, j) - GapPenalty; up > v {
					v, dir = up, pathUp
				}
				if left := boundary(q, i, j-1) - GapPenalty; left > v {
					v, dir = left, pathLeft
				}
				if v < 0 {
					v, dir = 0, pathNone
				}
				h.store(q, i, j, v)
				p.store(q, i, j, dir)
				if v > kBest {
					kBest, kI, kJ = v, int32(i), int32(j)
				}
			}
			// Kernel-wide best folded into the managed best buffer
			// (read-modify-write, like an atomicMax). Scalar accesses stay
			// on the traced path.
			if kBest > best.Load(e, 0) {
				best.Store(e, 0, kBest)
				best.Store(e, 1, kI)
				best.Store(e, 2, kJ)
			}
		})
		res.Iterations++
		if cfg.DiagEvery > 0 && res.Iterations%cfg.DiagEvery == 0 {
			s.Diagnostic(cfg.DiagOut, fmt.Sprintf("sw iteration %d", res.Iterations))
		}
		if cfg.StopAfter > 0 && res.Iterations >= cfg.StopAfter {
			return res, nil
		}
	}

	// The CPU reads the result (alternating access on the best buffer).
	res.Score = best.Load(host, 0)
	res.EndI = int(best.Load(host, 1))
	res.EndJ = int(best.Load(host, 2))

	if cfg.Traceback && res.Score > 0 {
		// Sparse CPU walk over the GPU-written path matrix (G>C reads with
		// very low density).
		i, j := res.EndI, res.EndJ
		for i > 0 && j > 0 {
			switch p.load(host, i, j) {
			case pathDiag:
				i, j = i-1, j-1
			case pathUp:
				i--
			case pathLeft:
				j--
			default:
				i, j = 0, 0 // pathNone: local alignment start
			}
			res.PathLen++
			if res.PathLen > n+m {
				return res, fmt.Errorf("sw: traceback exceeded %d steps", n+m)
			}
		}
	}
	return res, nil
}

// FootprintBytes returns the managed-memory footprint of an n x m run
// (H and P matrices; the dominant term), used to size over-subscription
// experiments.
func FootprintBytes(n, m int) int64 { return 2 * cells(n, m) * 4 }
