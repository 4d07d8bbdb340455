// Package xplrt is the XPlacer runtime library for instrumented plain Go
// programs — the analog of the runtime the paper's ROSE plugin links
// against (§III-B, Table I).
//
// The companion source rewriter (cmd/xplinstr, internal/instr) wraps heap
// reads and writes in TraceR / TraceW / TraceRW calls and expands
// "//xpl:diagnostic" pragmas into TracePrint calls. The runtime keeps the
// same shadow memory the simulated runtime uses — a sorted allocation
// table plus one flag byte per 32-bit word — over *real* Go heap
// addresses, and reuses the same anti-pattern detectors.
//
// Go has no device-annotated code, so the CPU/GPU split of the original
// becomes an explicit execution-context annotation. Code sections that
// play the GPU's role (an offloaded worker phase, a coprocessor RPC stub)
// run under a goroutine-scoped DeviceScope:
//
//	xplrt.OnDevice(xplrt.GPU, func(s *xplrt.DeviceScope) {
//		v := *xplrt.ScopeR(s, &xs[i]) // a GPU read
//	})
//
// which lets concurrent goroutines play different roles at once.
// Scope-less TraceR/W/RW calls, and scoped calls on a nil scope, charge
// the CPU. Everything else about the analysis — write/read origin
// tracking, alternating-access, density, and transfer diagnostics — is
// unchanged.
//
// # Recording hot path and flush semantics
//
// Trace calls do not touch the shadow table directly: the package is a
// front end over the shared recording engine (internal/record), which
// owns the per-P slot buffers, the stamp-ordered drain, and the
// flush-ordering guarantees (see the package record documentation). The
// engine drains into the runtime's pipeline.Pipeline, the analysis state
// that Register, Release and the diagnostics' relabels also go through,
// and that forwards all of them to the streams EnableStream attaches.
// Scope-less TraceR/W/RW calls record through the engine's slot path;
// ScopeR/W/RW calls append to the scope's private engine Buffer with no
// locking at all. Both paths coalesce an access that contiguously
// continues the previous record into a run. Buffered accesses become
// visible to diagnostics only at flush points: TracePrint, Report,
// OnDevice return, and explicit Flush calls (process-wide xplrt.Flush for
// the slots, DeviceScope.Flush for a scope); a scope drain flushes the
// slots first, so accesses recorded before the device section are
// applied before the section's own.
package xplrt

import (
	"fmt"
	"io"
	"reflect"
	"unsafe"

	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/pipeline"
	"xplacer/internal/record"
	"xplacer/internal/wire"
)

// Device identifies the processor role of the executing code section.
type Device = machine.Device

// Device roles.
const (
	CPU = machine.CPU
	GPU = machine.GPU
)

// runtime is the process-global analysis state: the recording engine, the
// pipeline it drains into, and the detector options. The engine lock is
// taken only at batch boundaries (drains, registration, diagnostics),
// never per access; opt and nextAllocID are guarded by it too.
type runtime struct {
	pl  *pipeline.Pipeline
	eng *record.Engine
	opt detect.Options

	// nextAllocID numbers registrations. The table keeps real addresses,
	// but frees, relabels, pattern digests and stream frames name an
	// allocation by id. It survives Reset, so a stream never sees an id
	// twice.
	nextAllocID int
}

func newRuntime() *runtime {
	pl := pipeline.New()
	return &runtime{pl: pl, eng: record.NewEngine(pl), opt: detect.DefaultOptions()}
}

var rt = newRuntime()

// recordAccess is the shared body of the trace functions: record into
// the calling goroutine's engine slot, sweeping the engine if it filled.
func recordAccess(dev Device, addr uintptr, size int64, kind memsim.AccessKind) {
	rt.eng.Record(dev, memsim.Addr(addr), size, kind)
}

// Reset discards all registered allocations and recorded accesses and
// detaches the EnableHeatmap and EnablePatterns sinks; intended for tests
// and for programs analyzing several phases independently. Sinks attached
// by AddSink and EnableStream stay attached.
func Reset() {
	rt.eng.Reset()
	rt.eng.Locked(func() {
		rt.pl.Reset()
		rt.opt = detect.DefaultOptions()
	})
}

// SetEnabled switches access recording on or off at runtime. Already
// buffered accesses still drain at the next flush point.
func SetEnabled(on bool) { rt.eng.SetEnabled(on) }

// Flush drains every buffered access into the shadow table. Diagnostics
// (TracePrint, Report) flush implicitly; an explicit Flush is only needed
// before inspecting the table through other means, or as a barrier before
// handing the analysis to another package.
func Flush() { rt.eng.Flush() }

// AddSink attaches an additional observer to the runtime's engine; it
// sees every access batch drained from now on.
func AddSink(s record.Sink) { rt.eng.AddSink(s) }

// EnableHeatmap attaches a per-word access-frequency observer (a
// record.HeatmapSink) over the current shadow table and returns it. The
// sink observes accesses recorded from now on; a later Reset detaches the
// sink, so enable it again after resetting.
func EnableHeatmap() *record.HeatmapSink {
	var hm *record.HeatmapSink
	rt.eng.Flush()
	rt.eng.Locked(func() { hm = rt.pl.EnableHeatmap(0, nil) })
	return hm
}

// EnablePatterns attaches an access-pattern classifier (a pattern.Sink)
// over the current shadow table and returns it. The sink folds batches
// drained from now on into per-allocation stride structure; plain Go
// programs have no kernel launches, so every stream stays in span 0
// unless the caller marks phases itself via Sink.BeginSpan (inside
// a flush; see the pattern package). Like EnableHeatmap, a later Reset
// detaches the sink.
func EnablePatterns() *pattern.Sink {
	var ps *pattern.Sink
	rt.eng.Flush()
	rt.eng.Locked(func() { ps = rt.pl.EnablePatterns(nil) })
	return ps
}

// EnableStream attaches an out-of-process streaming sink: drained access
// batches, Register/Release events and diagnostic relabels are forwarded
// on the wire so an aggregator (cmd/xplagg) can mirror the allocation
// table and analyses. Real heap addresses go on the wire as-is — the
// remote table is keyed by the same addresses the local one is. Several
// sinks may be attached; each sees the same frames. The caller owns Close
// on the sink (after a final Flush); a later Reset does not detach it.
func EnableStream(ss *wire.StreamSink) {
	rt.eng.Flush()
	rt.eng.Locked(func() { rt.pl.AddStream(ss) })
}

// Untracked reports how many recorded accesses hit no registered
// allocation so far (flushing buffered accesses first). It resets with
// Reset.
func Untracked() int64 {
	rt.eng.Flush()
	return rt.pl.Untracked()
}

// SetOptions adjusts the anti-pattern detector thresholds.
func SetOptions(opt detect.Options) {
	rt.eng.Locked(func() { rt.opt = opt })
}

// DeviceScope is a goroutine-scoped execution role: the handle instrumented
// code threads through functions that play a fixed device role. Unlike a
// process-global role switch, scopes let concurrent goroutines play the
// CPU and the GPU at the same time.
//
// A scope also carries a private engine Buffer, so the ScopeR/W/RW hot
// path appends with no locking at all. The buffer drains into the shadow
// table when it fills, at OnDevice return, and on Flush. A scope belongs
// to the goroutine using it — create one scope per goroutine (nested
// OnDevice calls are fine) instead of sharing one across goroutines.
// Interleaving a live scope's accesses with scope-less TraceR/W/RW
// accesses to the same words is ordered only at flush boundaries.
type DeviceScope struct {
	dev Device
	buf *record.Buffer
}

// NewScope returns a handle for code playing role d. Callers managing the
// handle themselves (rather than through OnDevice) must call Flush before
// the recorded accesses are analyzed.
func NewScope(d Device) *DeviceScope {
	return &DeviceScope{dev: d, buf: rt.eng.NewBuffer()}
}

// Device returns the scope's role.
func (s *DeviceScope) Device() Device {
	if s == nil {
		return CPU
	}
	return s.dev
}

// Flush drains the scope's buffered accesses into the shadow table.
// OnDevice flushes automatically when fn returns; explicit NewScope users
// call this themselves.
func (s *DeviceScope) Flush() {
	if s != nil {
		s.buf.Flush()
	}
}

// OnDevice runs fn with a scope playing role d — the structured form of a
// device section:
//
//	xplrt.OnDevice(xplrt.GPU, func(s *xplrt.DeviceScope) { ... })
//
// fn may hand its scope to helper functions (instrumented with the
// //xpl:scope pragma). The scope's buffered accesses are flushed when fn
// returns. Goroutines spawned inside fn should open their own scope with a
// nested OnDevice call rather than share s.
func OnDevice(d Device, fn func(*DeviceScope)) {
	s := NewScope(d)
	defer s.Flush()
	fn(s)
}

// ScopeR records a read through p in the scope's role and returns p, so
// that "*p" becomes "*xplrt.ScopeR(s, p)" in scoped code. A nil scope
// falls back to the CPU via TraceR.
func ScopeR[T any](s *DeviceScope, p *T) *T {
	if s == nil {
		return TraceR(p)
	}
	s.buf.Record(s.dev, memsim.Addr(uintptr(unsafe.Pointer(p))), int64(unsafe.Sizeof(*p)), memsim.Read)
	return p
}

// ScopeW records a write through p in the scope's role and returns p, so
// that "*p = v" becomes "*xplrt.ScopeW(s, p) = v" in scoped code.
func ScopeW[T any](s *DeviceScope, p *T) *T {
	if s == nil {
		return TraceW(p)
	}
	s.buf.Record(s.dev, memsim.Addr(uintptr(unsafe.Pointer(p))), int64(unsafe.Sizeof(*p)), memsim.Write)
	return p
}

// ScopeRW records a read-modify-write through p in the scope's role and
// returns p, so that "*p += v" becomes "*xplrt.ScopeRW(s, p) += v" in
// scoped code.
func ScopeRW[T any](s *DeviceScope, p *T) *T {
	if s == nil {
		return TraceRW(p)
	}
	s.buf.Record(s.dev, memsim.Addr(uintptr(unsafe.Pointer(p))), int64(unsafe.Sizeof(*p)), memsim.ReadWrite)
	return p
}

// sliceRange derives the (base address, element count, element size) of a
// slice for the range-trace entry points.
func sliceRange[T any](xs []T) (memsim.Addr, int, int64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return memsim.Addr(uintptr(unsafe.Pointer(&xs[0]))), len(xs), int64(unsafe.Sizeof(xs[0]))
}

// AccessKind is the kind of one traced access, re-exported so range
// callers need no second import.
type AccessKind = memsim.AccessKind

// Access kinds for Range and ScopeRange.
const (
	Read      = memsim.Read
	Write     = memsim.Write
	ReadWrite = memsim.ReadWrite
)

// RangeOpt configures Range and ScopeRange. It is a small value type (not
// a closure), so the variadic option slice of a strided call stays off the
// heap and the hot path pays nothing for the flexibility.
type RangeOpt struct {
	stride int
}

// Stride makes the range strided: only elements 0, step, 2*step, … are
// recorded — the shape of a column sweep over a row-major matrix. A
// non-positive step is ignored (the range stays contiguous).
func Stride(step int) RangeOpt { return RangeOpt{stride: step} }

// rangeStep folds the options into the element step (1 = contiguous).
func rangeStep(opts []RangeOpt) int {
	step := 1
	for _, o := range opts {
		if o.stride > 0 {
			step = o.stride
		}
	}
	return step
}

// Range records an access of the given kind to the elements of xs as one
// run-length-encoded range — the compact equivalent of per-element
// TraceR/W/RW calls in ascending order, at a fraction of the recording
// cost. It returns xs, so a sweep can be traced where the slice is used:
//
//	sum(xplrt.Range(xplrt.Read, xs))
//	copy(xplrt.Range(xplrt.Write, dst), src)
//	sumCol(xplrt.Range(xplrt.Read, xs[c:], xplrt.Stride(cols)), cols)
//
// Range is the consolidated range-tracing entry point. The access is
// charged to the CPU; scoped code uses ScopeRange.
func Range[T any](kind AccessKind, xs []T, opts ...RangeOpt) []T {
	if base, n, sz := sliceRange(xs); n > 0 {
		if step := rangeStep(opts); step == 1 {
			rt.eng.RecordRange(CPU, base, n, sz, sz, kind)
		} else {
			rt.eng.RecordRange(CPU, base, (n+step-1)/step, int64(step)*sz, sz, kind)
		}
	}
	return xs
}

// ScopeRange is Range in the scope's role, through the scope's private
// buffer (no locking). A nil scope falls back to the CPU via Range.
// It is a package-level generic function rather than a DeviceScope method
// because Go methods cannot introduce type parameters.
func ScopeRange[T any](s *DeviceScope, kind AccessKind, xs []T, opts ...RangeOpt) []T {
	if s == nil {
		return Range(kind, xs, opts...)
	}
	if base, n, sz := sliceRange(xs); n > 0 {
		if step := rangeStep(opts); step == 1 {
			s.buf.RecordRange(s.dev, base, n, sz, sz, kind)
		} else {
			s.buf.RecordRange(s.dev, base, (n+step-1)/step, int64(step)*sz, sz, kind)
		}
	}
	return xs
}

// Register makes an allocation visible to the tracer. v must be a pointer
// or a slice; the covered byte range is derived from the element type.
// Registering the same or an overlapping range twice is ignored (the first
// registration wins), so helper constructors can call it unconditionally.
func Register(v any, label string) {
	base, size := rangeOf(reflect.ValueOf(v))
	if size == 0 {
		return
	}
	rt.eng.Locked(func() {
		// Registered Go heap memory is accessible from both execution roles,
		// like CUDA managed memory — which also makes the alternating-access
		// detector apply to it.
		if rt.pl.Alloc(wire.AllocInfo{
			ID: rt.nextAllocID, Base: memsim.Addr(base), Size: size,
			Kind: memsim.Managed, Label: label, Fn: "xplrt.Register",
		}) == nil {
			rt.nextAllocID++
		}
	})
}

// Release marks an allocation's range as freed; its shadow memory survives
// until the next diagnostic, as in the paper. Accesses buffered before the
// release still drain into the entry, so the last interval's summary stays
// complete.
func Release(v any) {
	base, size := rangeOf(reflect.ValueOf(v))
	if size == 0 {
		return
	}
	rt.eng.Flush()
	rt.eng.Locked(func() {
		if e := rt.pl.Table().Find(memsim.Addr(base)); e != nil {
			rt.pl.Free(e.AllocID)
		}
	})
}

// Slice allocates a traced slice of n elements.
func Slice[T any](n int, label string) []T {
	s := make([]T, n)
	if n > 0 {
		Register(s, label)
	}
	return s
}

// New allocates a traced value.
func New[T any](label string) *T {
	p := new(T)
	Register(p, label)
	return p
}

// rangeOf computes the (base, size) byte range of a pointer or slice value.
func rangeOf(v reflect.Value) (uintptr, int64) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0, 0
		}
		return v.Pointer(), int64(v.Type().Elem().Size())
	case reflect.Slice:
		if v.Len() == 0 {
			return 0, 0
		}
		return v.Pointer(), int64(v.Type().Elem().Size()) * int64(v.Len())
	default:
		return 0, 0
	}
}

// TraceR records a read through p and returns p, so that "*p" becomes
// "*xplrt.TraceR(p)" (the Go rendering of the paper's traceR). It charges
// the access to the CPU; scoped code uses ScopeR.
func TraceR[T any](p *T) *T {
	recordAccess(CPU, uintptr(unsafe.Pointer(p)), int64(unsafe.Sizeof(*p)), memsim.Read)
	return p
}

// TraceW records a write through p and returns p, so that "*p = v" becomes
// "*xplrt.TraceW(p) = v".
func TraceW[T any](p *T) *T {
	recordAccess(CPU, uintptr(unsafe.Pointer(p)), int64(unsafe.Sizeof(*p)), memsim.Write)
	return p
}

// TraceRW records a read-modify-write through p and returns p, so that
// "*p += v" becomes "*xplrt.TraceRW(p) += v".
func TraceRW[T any](p *T) *T {
	recordAccess(CPU, uintptr(unsafe.Pointer(p)), int64(unsafe.Sizeof(*p)), memsim.ReadWrite)
	return p
}

// AllocData names one traced allocation for the diagnostic output — the
// runtime form of the paper's XplAllocData records.
type AllocData struct {
	Base     uintptr
	Name     string
	ElemSize int64
}

// NamedArg pairs a diagnostic argument with its source-level name; the
// instrumentation pass generates these from the pragma's expanded
// argument list.
type NamedArg struct {
	Value any
	Name  string
}

// Arg builds a NamedArg (used by generated code).
func Arg(v any, name string) NamedArg { return NamedArg{Value: v, Name: name} }

// ExpandAll turns diagnostic arguments into AllocData records, recursively
// following pointer-typed struct fields exactly like the paper's expansion
// of "#pragma xpl diagnostic" arguments (§III-B): for a pointer to a
// struct with pointer members, each member yields an additional record
// named "name->field". Type repetition (linked lists) stops the recursion.
func ExpandAll(args ...NamedArg) []AllocData {
	var out []AllocData
	for _, a := range args {
		v := reflect.ValueOf(a.Value)
		expand(v, a.Name, map[reflect.Type]bool{}, &out)
	}
	return out
}

func expand(v reflect.Value, name string, seen map[reflect.Type]bool, out *[]AllocData) {
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return
	}
	t := v.Type()
	if seen[t] {
		return // type repetition: stop (linked lists, §III-B)
	}
	seen[t] = true
	defer delete(seen, t)

	*out = append(*out, AllocData{
		Base:     v.Pointer(),
		Name:     name,
		ElemSize: int64(t.Elem().Size()),
	})
	elem := v.Elem()
	if elem.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < elem.NumField(); i++ {
		f := elem.Field(i)
		fieldName := name + "->" + elem.Type().Field(i).Name
		// Unexported fields are included: reflect allows reading their
		// pointer values, and the paper's expansion covers all pointer
		// members of the object.
		switch f.Kind() {
		case reflect.Pointer:
			expand(f, fieldName, seen, out)
		case reflect.Slice:
			if f.Len() > 0 {
				base, size := rangeOf(f)
				*out = append(*out, AllocData{Base: base, Name: fieldName, ElemSize: size / int64(f.Len())})
			}
		}
	}
}

// TracePrint is the diagnostic entry point the "//xpl:diagnostic" pragma
// expands to: it flushes the access buffers, (re)labels the allocations
// named by the expanded arguments, prints the per-allocation summaries and
// anti-pattern findings to w, and resets the interval state.
func TracePrint(w io.Writer, data ...AllocData) {
	rt.eng.Flush()
	var r diag.Report
	rt.eng.Locked(func() {
		for _, d := range data {
			// FindAny: freed-but-retained entries are still part of this
			// interval's report and deserve their user-facing name.
			if e := rt.pl.Table().FindAny(memsim.Addr(d.Base)); e != nil {
				rt.pl.Label(e.AllocID, d.Name)
			}
		}
		r = rt.pl.Diagnostic("", rt.opt)
	})
	if w != nil {
		r.Text(w)
	}
}

// Report flushes the access buffers, analyzes without printing, and resets
// the interval state.
func Report() (r diag.Report) {
	rt.eng.Flush()
	rt.eng.Locked(func() { r = rt.pl.Diagnostic("", rt.opt) })
	return r
}

// ShadowOf returns a copy of the shadow bytes of the traced allocation
// covering v (a pointer or slice), flushing buffered accesses first, or
// nil if v's range is not registered — a debugging and testing aid for
// comparing shadow state across runtimes.
func ShadowOf(v any) []byte {
	base, size := rangeOf(reflect.ValueOf(v))
	if size == 0 {
		return nil
	}
	rt.eng.Flush()
	var out []byte
	rt.eng.Locked(func() {
		if e := rt.pl.Table().FindAny(memsim.Addr(base)); e != nil {
			out = append([]byte(nil), e.Shadow...)
		}
	})
	return out
}

// Allocations reports the number of traced allocations (for tests).
func Allocations() int {
	var n int
	rt.eng.Locked(func() { n = rt.pl.Table().Len() })
	return n
}

// String renders an AllocData for debugging.
func (d AllocData) String() string {
	return fmt.Sprintf("%s@%#x(elem %dB)", d.Name, d.Base, d.ElemSize)
}
