// Package lulesh is a proxy for the RAJA/CUDA version of LULESH 2, the
// hydrodynamics mini-app the paper uses as its main case study (§II-C,
// §III-D, §IV-A).
//
// The structural properties that matter to XPlacer are reproduced
// faithfully:
//
//   - a singleton Domain object in unified memory holding pointers to ~50
//     dynamically allocated data arrays (the paper's domain object is 3736
//     bytes; so is ours);
//   - most arrays are touched exclusively by either the CPU or the GPU
//     after the first timestep;
//   - two kernels need temporary storage that the CPU allocates in unified
//     memory, publishes through Domain fields, and frees again — twice per
//     timestep — which makes CPU writes and GPU reads alternate on the
//     Domain object's page and page-fault on x86 systems;
//   - the CPU reads Domain fields between kernel groups (the RAJA host
//     code capturing array pointers), and reads a small GPU-written
//     reduction result (dtcourant/dthydro) every timestep.
//
// The hydrodynamics itself is a simplified but deterministic Sedov-style
// update: real array traffic with the same centering (node vs element) and
// kernel structure, stable for any size and timestep count, and — crucial
// for validating the optimization variants — bit-identical results across
// all placement strategies.
package lulesh

import (
	"fmt"
	"io"
	"math"

	"xplacer/internal/core"
	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/raja"
	"xplacer/internal/um"
)

// Variant selects the data-placement strategy (§IV-A's remedies).
type Variant int

// Placement variants benchmarked in Fig. 6.
const (
	// Baseline is the default RAJA/CUDA version: managed memory, no hints.
	Baseline Variant = iota
	// ReadMostly sets cudaMemAdviseSetReadMostly on every managed
	// allocation (the paper's one-line change).
	ReadMostly
	// PreferredLocation pins the Domain object to the CPU.
	PreferredLocation
	// AccessedBy maps the Domain object into the GPU's page tables.
	AccessedBy
	// DupDomain duplicates the Domain object so each processor reads its
	// own copy, and passes temporary-buffer pointers as kernel arguments
	// instead of Domain fields.
	DupDomain
)

var variantNames = map[Variant]string{
	Baseline:          "baseline",
	ReadMostly:        "readmostly",
	PreferredLocation: "preferred",
	AccessedBy:        "accessedby",
	DupDomain:         "dupdomain",
}

func (v Variant) String() string {
	if s, ok := variantNames[v]; ok {
		return s
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants returns all placement variants in Fig. 6 order.
func Variants() []Variant {
	return []Variant{Baseline, ReadMostly, PreferredLocation, AccessedBy, DupDomain}
}

// VariantByName parses a variant name.
func VariantByName(name string) (Variant, error) {
	for v, n := range variantNames {
		if n == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("lulesh: unknown variant %q", name)
}

// Config parameterizes a run.
type Config struct {
	// Size is the problem edge length: Size^3 elements (paper sizes 8-48).
	Size int
	// Timesteps is the number of Lagrange leapfrog iterations (paper
	// Table III uses 16).
	Timesteps int
	// Variant selects the placement strategy.
	Variant Variant
	// DiagEvery > 0 emits a diagnostic after every DiagEvery-th timestep
	// ("in LULESH the diagnostics are called at the end of every
	// timestep", §III-C).
	DiagEvery int
	// DiagOut receives diagnostic output; nil suppresses printing.
	DiagOut io.Writer
	// ResetBefore > 0 resets the shadow memory right before the given
	// (1-based) timestep, so the shadow afterwards holds only the accesses
	// from that timestep on (used to reproduce Fig. 5's per-iteration
	// maps).
	ResetBefore int
	// PostSetup, if set, runs after the Domain and arrays are allocated
	// and initialized but before the first timestep — the hook the
	// placement advisor uses to apply derived cudaMemAdvise calls to a
	// fresh run.
	PostSetup func(s *core.Session) error
}

// Result is the outcome of a run.
type Result struct {
	// FinalOriginEnergy is the energy of element 0, LULESH's canonical
	// verification value. It must be identical across variants.
	FinalOriginEnergy float64
	// Timesteps actually executed.
	Timesteps int
}

// Domain field indices. The Domain object is a table of 8-byte slots; most
// hold array base addresses, a few hold scalars. 467 slots * 8 = 3736
// bytes, the object size reported in the paper's Fig. 5.
const (
	fX = iota
	fY
	fZ
	fXD
	fYD
	fZD
	fXDD
	fYDD
	fZDD
	fFX
	fFY
	fFZ
	fNodalMass
	fSymm
	fNodelist
	fE
	fP
	fQ
	fQL
	fQQ
	fV
	fVolo
	fVnew
	fDelv
	fVdov
	fArealg
	fSS
	fElemMass
	fSigXX
	fSigYY
	fSigZZ
	fDXX
	fDYY
	fDZZ
	fDelvXi
	fDelvEta
	fDelvZeta
	fDelxXi
	fDelxEta
	fDelxZeta
	fEOld
	fPOld
	fQOld
	fCompression
	fWork
	fDtRed
	fTempHG  // temporary hourglass buffer, set and cleared every timestep
	fTempKin // temporary kinematics buffer, set and cleared every timestep
	fDeltaTime
	fTime
	numFields

	// domSlots pads the object to the paper's 3736 bytes (467 slots).
	domSlots = 467
)

// arrays bundles the Domain's persistent data arrays.
type arrays struct {
	// node-centered
	x, y, z          memsim.Float64View
	xd, yd, zd       memsim.Float64View
	xdd, ydd, zdd    memsim.Float64View
	fx, fy, fz       memsim.Float64View
	nodalMass        memsim.Float64View
	symm             memsim.Int32View
	nodelist         memsim.Int32View
	e, p, q, ql, qq  memsim.Float64View
	v, volo, vnew    memsim.Float64View
	delv, vdov       memsim.Float64View
	arealg, ss       memsim.Float64View
	elemMass         memsim.Float64View
	sigxx, sigyy     memsim.Float64View
	sigzz            memsim.Float64View
	dxx, dyy, dzz    memsim.Float64View
	delvXi, delvEta  memsim.Float64View
	delvZeta         memsim.Float64View
	delxXi, delxEta  memsim.Float64View
	delxZeta         memsim.Float64View
	eOld, pOld, qOld memsim.Float64View
	compression      memsim.Float64View
	work             memsim.Float64View
}

// sim is the full simulation state.
type sim struct {
	cfg   Config
	s     *core.Session
	ctx   *cuda.Context
	ne    int // elements
	nn    int // nodes
	dt    float64
	areas *arrays

	// dom is the Domain object the GPU kernels read; domHost is the copy
	// the host code reads (the same allocation except under DupDomain).
	dom     memsim.Uint64View
	domHost memsim.Uint64View

	// redCourant and redHydro are the RAJA-style min reductions of the
	// time-constraint kernel.
	redCourant, redHydro *raja.ReduceMin
}

// allocView allocates a managed float64 array registered under the
// "(dom)->m_*" naming the paper's diagnostics use.
func (sm *sim) allocF64(n int, label string) (memsim.Float64View, error) {
	a, err := sm.ctx.MallocManaged(int64(n)*8, "(dom)->"+label)
	if err != nil {
		return memsim.Float64View{}, err
	}
	return memsim.Float64s(a), nil
}

func (sm *sim) allocI32(n int, label string) (memsim.Int32View, error) {
	a, err := sm.ctx.MallocManaged(int64(n)*4, "(dom)->"+label)
	if err != nil {
		return memsim.Int32View{}, err
	}
	return memsim.Int32s(a), nil
}

// Run executes the LULESH proxy on the session's simulated machine.
func Run(s *core.Session, cfg Config) (Result, error) {
	if cfg.Size < 2 {
		return Result{}, fmt.Errorf("lulesh: size must be >= 2, got %d", cfg.Size)
	}
	if cfg.Timesteps <= 0 {
		return Result{}, fmt.Errorf("lulesh: timesteps must be positive, got %d", cfg.Timesteps)
	}
	sm := &sim{cfg: cfg, s: s, ctx: s.Ctx}
	n := cfg.Size
	sm.ne = n * n * n
	sm.nn = (n + 1) * (n + 1) * (n + 1)
	sm.dt = 1e-7

	if err := sm.setup(); err != nil {
		return Result{}, err
	}
	if cfg.PostSetup != nil {
		if err := cfg.PostSetup(s); err != nil {
			return Result{}, err
		}
	}
	for step := 0; step < cfg.Timesteps; step++ {
		if cfg.ResetBefore > 0 && step+1 == cfg.ResetBefore && s.Tracer != nil {
			s.Tracer.Diagnostic("", s.Opt)
		}
		if err := sm.timestep(); err != nil {
			return Result{}, err
		}
		if cfg.DiagEvery > 0 && (step+1)%cfg.DiagEvery == 0 {
			s.Diagnostic(cfg.DiagOut, fmt.Sprintf("lulesh timestep %d", step+1))
		}
	}
	sm.ctx.Synchronize()
	return Result{
		FinalOriginEnergy: sm.areas.e.Peek(0),
		Timesteps:         cfg.Timesteps,
	}, nil
}

// setup allocates the Domain and its arrays and initializes the Sedov-like
// state on the CPU, exactly like the application's startup phase.
func (sm *sim) setup() error {
	ctx := sm.ctx
	host := ctx.Host()

	domAlloc, err := ctx.MallocManaged(domSlots*8, "dom")
	if err != nil {
		return err
	}
	sm.dom = memsim.Uint64s(domAlloc)
	sm.domHost = sm.dom
	if sm.cfg.Variant == DupDomain {
		// Duplicate the domain object: the CPU keeps its own copy so the
		// two processors never share a page (§IV-A remedy (2)).
		hostDom, err := ctx.MallocManaged(domSlots*8, "dom_cpu")
		if err != nil {
			return err
		}
		sm.domHost = memsim.Uint64s(hostDom)
	}

	ar := &arrays{}
	sm.areas = ar
	ne, nn := sm.ne, sm.nn
	var errs []error
	aF := func(dst *memsim.Float64View, n int, label string) {
		v, err := sm.allocF64(n, label)
		if err != nil {
			errs = append(errs, err)
			return
		}
		*dst = v
	}
	// Node-centered fields.
	aF(&ar.x, nn, "m_x")
	aF(&ar.y, nn, "m_y")
	aF(&ar.z, nn, "m_z")
	aF(&ar.xd, nn, "m_xd")
	aF(&ar.yd, nn, "m_yd")
	aF(&ar.zd, nn, "m_zd")
	aF(&ar.xdd, nn, "m_xdd")
	aF(&ar.ydd, nn, "m_ydd")
	aF(&ar.zdd, nn, "m_zdd")
	aF(&ar.fx, nn, "m_fx")
	aF(&ar.fy, nn, "m_fy")
	aF(&ar.fz, nn, "m_fz")
	aF(&ar.nodalMass, nn, "m_nodalMass")
	// Element-centered fields.
	aF(&ar.e, ne, "m_e")
	aF(&ar.p, ne, "m_p")
	aF(&ar.q, ne, "m_q")
	aF(&ar.ql, ne, "m_ql")
	aF(&ar.qq, ne, "m_qq")
	aF(&ar.v, ne, "m_v")
	aF(&ar.volo, ne, "m_volo")
	aF(&ar.vnew, ne, "m_vnew")
	aF(&ar.delv, ne, "m_delv")
	aF(&ar.vdov, ne, "m_vdov")
	aF(&ar.arealg, ne, "m_arealg")
	aF(&ar.ss, ne, "m_ss")
	aF(&ar.elemMass, ne, "m_elemMass")
	aF(&ar.sigxx, ne, "m_sigxx")
	aF(&ar.sigyy, ne, "m_sigyy")
	aF(&ar.sigzz, ne, "m_sigzz")
	aF(&ar.dxx, ne, "m_dxx")
	aF(&ar.dyy, ne, "m_dyy")
	aF(&ar.dzz, ne, "m_dzz")
	aF(&ar.delvXi, ne, "m_delv_xi")
	aF(&ar.delvEta, ne, "m_delv_eta")
	aF(&ar.delvZeta, ne, "m_delv_zeta")
	aF(&ar.delxXi, ne, "m_delx_xi")
	aF(&ar.delxEta, ne, "m_delx_eta")
	aF(&ar.delxZeta, ne, "m_delx_zeta")
	aF(&ar.eOld, ne, "m_e_old")
	aF(&ar.pOld, ne, "m_p_old")
	aF(&ar.qOld, ne, "m_q_old")
	aF(&ar.compression, ne, "m_compression")
	aF(&ar.work, ne, "m_work")
	if sm.redCourant, err = raja.NewReduceMin(ctx, "(dom)->m_dtcourant", math.MaxFloat64); err != nil {
		errs = append(errs, err)
	}
	if sm.redHydro, err = raja.NewReduceMin(ctx, "(dom)->m_dthydro", math.MaxFloat64); err != nil {
		errs = append(errs, err)
	}
	if ar.nodelist, err = sm.allocI32(8*ne, "m_nodelist"); err != nil {
		errs = append(errs, err)
	}
	if ar.symm, err = sm.allocI32(3*sm.cfg.Size*sm.cfg.Size, "m_symm"); err != nil {
		errs = append(errs, err)
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}

	// Publish the array pointers in the Domain object(s) — CPU writes.
	publish := func(dom memsim.Uint64View) {
		fields := []struct {
			idx  int
			addr memsim.Addr
		}{
			{fX, ar.x.Addr(0)}, {fY, ar.y.Addr(0)}, {fZ, ar.z.Addr(0)},
			{fXD, ar.xd.Addr(0)}, {fYD, ar.yd.Addr(0)}, {fZD, ar.zd.Addr(0)},
			{fXDD, ar.xdd.Addr(0)}, {fYDD, ar.ydd.Addr(0)}, {fZDD, ar.zdd.Addr(0)},
			{fFX, ar.fx.Addr(0)}, {fFY, ar.fy.Addr(0)}, {fFZ, ar.fz.Addr(0)},
			{fNodalMass, ar.nodalMass.Addr(0)}, {fSymm, ar.symm.Addr(0)},
			{fNodelist, ar.nodelist.Addr(0)},
			{fE, ar.e.Addr(0)}, {fP, ar.p.Addr(0)}, {fQ, ar.q.Addr(0)},
			{fQL, ar.ql.Addr(0)}, {fQQ, ar.qq.Addr(0)},
			{fV, ar.v.Addr(0)}, {fVolo, ar.volo.Addr(0)}, {fVnew, ar.vnew.Addr(0)},
			{fDelv, ar.delv.Addr(0)}, {fVdov, ar.vdov.Addr(0)},
			{fArealg, ar.arealg.Addr(0)}, {fSS, ar.ss.Addr(0)},
			{fElemMass, ar.elemMass.Addr(0)},
			{fSigXX, ar.sigxx.Addr(0)}, {fSigYY, ar.sigyy.Addr(0)}, {fSigZZ, ar.sigzz.Addr(0)},
			{fDXX, ar.dxx.Addr(0)}, {fDYY, ar.dyy.Addr(0)}, {fDZZ, ar.dzz.Addr(0)},
			{fDelvXi, ar.delvXi.Addr(0)}, {fDelvEta, ar.delvEta.Addr(0)}, {fDelvZeta, ar.delvZeta.Addr(0)},
			{fDelxXi, ar.delxXi.Addr(0)}, {fDelxEta, ar.delxEta.Addr(0)}, {fDelxZeta, ar.delxZeta.Addr(0)},
			{fEOld, ar.eOld.Addr(0)}, {fPOld, ar.pOld.Addr(0)}, {fQOld, ar.qOld.Addr(0)},
			{fCompression, ar.compression.Addr(0)}, {fWork, ar.work.Addr(0)},
			{fDtRed, memsim.Addr(sm.redCourant.Alloc().Base)},
		}
		for _, f := range fields {
			dom.Store(host, int64(f.idx), uint64(f.addr))
		}
	}
	publish(sm.dom)
	if sm.cfg.Variant == DupDomain {
		publish(sm.domHost)
	}

	// Sedov-like initial state, CPU-written (program initialization).
	n := sm.cfg.Size
	for node := 0; node < sm.nn; node++ {
		i := node % (n + 1)
		j := node / (n + 1) % (n + 1)
		k := node / ((n + 1) * (n + 1))
		ar.x.Store(host, int64(node), float64(i)/float64(n))
		ar.y.Store(host, int64(node), float64(j)/float64(n))
		ar.z.Store(host, int64(node), float64(k)/float64(n))
		ar.xd.Store(host, int64(node), 0)
		ar.yd.Store(host, int64(node), 0)
		ar.zd.Store(host, int64(node), 0)
		ar.nodalMass.Store(host, int64(node), 1)
	}
	for el := 0; el < sm.ne; el++ {
		for c := 0; c < 8; c++ {
			ar.nodelist.Store(host, int64(el*8+c), int32(cornerNode(el, c, n)))
		}
		ar.v.Store(host, int64(el), 1)
		ar.volo.Store(host, int64(el), 1/float64(sm.ne))
		ar.elemMass.Store(host, int64(el), 1/float64(sm.ne))
		ar.e.Store(host, int64(el), 0)
		ar.p.Store(host, int64(el), 0)
		ar.q.Store(host, int64(el), 0)
	}
	// Deposit the Sedov energy at the origin element.
	ar.e.Store(host, 0, 3.948746e+7)
	for b := 0; b < 3*n*n; b++ {
		ar.symm.Store(host, int64(b), int32(b%sm.nn))
	}

	// Apply the variant's placement advice.
	switch sm.cfg.Variant {
	case ReadMostly:
		// One-line change in the application's allocator: advise every
		// managed allocation (§IV-A remedy (1)).
		for _, a := range ctx.Space().Live() {
			if a.Kind == memsim.Managed {
				if err := ctx.Advise(a, um.AdviseSetReadMostly, machine.CPU); err != nil {
					return err
				}
			}
		}
	case PreferredLocation:
		if err := ctx.Advise(sm.dom.Alloc(), um.AdviseSetPreferredLocation, machine.CPU); err != nil {
			return err
		}
	case AccessedBy:
		if err := ctx.Advise(sm.dom.Alloc(), um.AdviseSetAccessedBy, machine.GPU); err != nil {
			return err
		}
		if err := ctx.Advise(sm.dom.Alloc(), um.AdviseSetAccessedBy, machine.CPU); err != nil {
			return err
		}
	}
	return nil
}

// cornerNode maps (element, corner) to a node index on the (n+1)^3 grid.
func cornerNode(el, corner, n int) int {
	i := el % n
	j := el / n % n
	k := el / (n * n)
	di := corner & 1
	dj := corner >> 1 & 1
	dk := corner >> 2
	return (i + di) + (j+dj)*(n+1) + (k+dk)*(n+1)*(n+1)
}
