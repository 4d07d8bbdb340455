// Package memsim provides the simulated address space that the CUDA-like
// runtime (internal/cuda) and the unified-memory driver (internal/um)
// operate on.
//
// Every allocation owns a contiguous range of simulated virtual addresses
// and a single backing byte slice that holds the authoritative data
// regardless of which device the pages are currently resident on; residency
// and migration are pure metadata tracked by the driver. Typed views
// (Float64View, Int32View, ...) give benchmark code array-like access while
// funnelling every element load and store through one Accessor so that the
// cost model and the XPlacer tracer observe each access.
package memsim

import (
	"fmt"
	"math"
	"sort"
)

// Addr is a simulated virtual address.
type Addr uint64

// Kind describes how an allocation was created, mirroring the CUDA
// allocation families the paper distinguishes (§III-A).
type Kind uint8

// Allocation kinds.
const (
	// Managed memory is accessible from both CPU and GPU with driver-managed
	// page migration (cudaMallocManaged).
	Managed Kind = iota
	// DeviceOnly memory lives on the GPU and must be filled with explicit
	// transfers (cudaMalloc).
	DeviceOnly
	// HostOnly memory is ordinary host heap (malloc/new) registered with the
	// space so the tracer can observe host-side accesses.
	HostOnly
)

func (k Kind) String() string {
	switch k {
	case Managed:
		return "managed"
	case DeviceOnly:
		return "device"
	case HostOnly:
		return "host"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// AccessKind distinguishes reads, writes, and read-modify-writes, matching
// the traceR/traceW/traceRW triple of the instrumentation API (Table I).
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota
	Write
	ReadWrite
)

func (k AccessKind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Accessor receives every element access performed through a view. The
// cuda execution contexts implement it by charging simulated time and
// invoking the tracer.
type Accessor interface {
	Access(a *Alloc, addr Addr, size int64, kind AccessKind)
}

// Alloc is one allocation in the simulated address space.
type Alloc struct {
	// ID is a dense, space-unique allocation index (useful for side tables).
	ID int
	// Base is the first simulated address; allocations are page-aligned.
	Base Addr
	// Size is the allocation length in bytes.
	Size int64
	// Kind records the allocation family.
	Kind Kind
	// Label is an optional user-facing name ("dom", "(dom)->m_p", ...).
	Label string
	// Freed is set by Space.Free; the backing data stays readable so that
	// delayed shadow-memory release (paper §III-C) can still analyze it.
	Freed bool

	data []byte
}

// End is the address one past the allocation.
func (a *Alloc) End() Addr { return a.Base + Addr(a.Size) }

// Contains reports whether addr falls inside the allocation.
func (a *Alloc) Contains(addr Addr) bool { return addr >= a.Base && addr < a.End() }

// Data exposes the backing bytes (authoritative copy).
func (a *Alloc) Data() []byte { return a.data }

// Offset translates an address inside the allocation to a byte offset.
// It panics if addr is out of range: that is a bug in the calling code,
// equivalent to an out-of-bounds pointer dereference.
func (a *Alloc) Offset(addr Addr) int64 {
	if !a.Contains(addr) {
		panic(fmt.Sprintf("memsim: address %#x outside allocation %q [%#x,%#x)", addr, a.Label, a.Base, a.End()))
	}
	return int64(addr - a.Base)
}

func (a *Alloc) String() string {
	label := a.Label
	if label == "" {
		label = fmt.Sprintf("alloc#%d", a.ID)
	}
	return fmt.Sprintf("%s(%s, %d bytes @ %#x)", label, a.Kind, a.Size, a.Base)
}

// Space is a simulated virtual address space: a page-aligned bump allocator
// with an ordered index for address lookup.
type Space struct {
	pageSize int64
	next     Addr
	allocs   []*Alloc // all allocations ever made, by ID
	live     []*Alloc // live allocations sorted by Base
}

// NewSpace creates an address space with the given page granularity
// (must be a positive power of two). Allocations are aligned to pages so
// distinct allocations never share a page — within-allocation sharing (the
// LULESH domain object) is the effect the paper studies.
func NewSpace(pageSize int64) *Space {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("memsim: page size must be a positive power of two, got %d", pageSize))
	}
	return &Space{pageSize: pageSize, next: Addr(pageSize)} // keep 0 as "null"
}

// PageSize returns the space's page granularity in bytes.
func (s *Space) PageSize() int64 { return s.pageSize }

// Alloc reserves size bytes of a given kind. Size must be positive.
func (s *Space) Alloc(size int64, kind Kind, label string) (*Alloc, error) {
	if size <= 0 {
		return nil, fmt.Errorf("memsim: allocation size must be positive, got %d", size)
	}
	a := &Alloc{
		ID:    len(s.allocs),
		Base:  s.next,
		Size:  size,
		Kind:  kind,
		Label: label,
		data:  make([]byte, size),
	}
	span := (size + s.pageSize - 1) / s.pageSize * s.pageSize
	s.next += Addr(span)
	s.allocs = append(s.allocs, a)
	s.live = append(s.live, a) // bump allocator: always the highest base
	return a, nil
}

// Free releases an allocation. The Alloc struct and backing data remain
// valid for delayed diagnostic analysis; only address lookup stops finding
// it. Freeing twice is an error.
func (s *Space) Free(a *Alloc) error {
	if a == nil {
		return fmt.Errorf("memsim: Free(nil)")
	}
	if a.Freed {
		return fmt.Errorf("memsim: double free of %s", a)
	}
	a.Freed = true
	for i, l := range s.live {
		if l == a {
			s.live = append(s.live[:i], s.live[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("memsim: Free of unknown allocation %s", a)
}

// Lookup finds the live allocation containing addr, or nil.
func (s *Space) Lookup(addr Addr) *Alloc {
	i := sort.Search(len(s.live), func(i int) bool { return s.live[i].End() > addr })
	if i < len(s.live) && s.live[i].Contains(addr) {
		return s.live[i]
	}
	return nil
}

// ByID returns the allocation with the given ID (live or freed), or nil.
func (s *Space) ByID(id int) *Alloc {
	if id < 0 || id >= len(s.allocs) {
		return nil
	}
	return s.allocs[id]
}

// Live returns the live allocations in base-address order. The returned
// slice must not be modified.
func (s *Space) Live() []*Alloc { return s.live }

// ---------------------------------------------------------------------------
// Typed views
// ---------------------------------------------------------------------------

// checkRange panics on an out-of-bounds element access; this mirrors an
// out-of-bounds pointer dereference in the instrumented C++/CUDA code.
func checkRange(a *Alloc, off, size int64) {
	if off < 0 || off+size > a.Size {
		panic(fmt.Sprintf("memsim: access [%d,%d) out of bounds of %s", off, off+size, a))
	}
}

// Float64View reads and writes float64 elements of an allocation.
type Float64View struct {
	a   *Alloc
	off int64 // byte offset of element 0
	n   int64 // element count
}

// Float64s views the whole allocation as float64 elements.
func Float64s(a *Alloc) Float64View { return Float64sAt(a, 0, a.Size/8) }

// Float64sAt views n float64 elements starting at byte offset off.
func Float64sAt(a *Alloc, off, n int64) Float64View {
	checkRange(a, off, n*8)
	return Float64View{a: a, off: off, n: n}
}

// Len returns the number of elements in the view.
func (v Float64View) Len() int64 { return v.n }

// Addr returns the simulated address of element i.
func (v Float64View) Addr(i int64) Addr { return v.a.Base + Addr(v.off+i*8) }

// Alloc returns the underlying allocation.
func (v Float64View) Alloc() *Alloc { return v.a }

// Load reads element i through the accessor.
func (v Float64View) Load(ex Accessor, i int64) float64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: float64 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 8, Read)
	return v.peek(i)
}

// Store writes element i through the accessor.
func (v Float64View) Store(ex Accessor, i int64, x float64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: float64 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 8, Write)
	v.poke(i, x)
}

// Update reads, transforms, and writes back element i as one
// read-modify-write access (traceRW in the paper's API).
func (v Float64View) Update(ex Accessor, i int64, f func(float64) float64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: float64 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 8, ReadWrite)
	v.poke(i, f(v.peek(i)))
}

// Peek reads element i without touching the accessor (no simulated cost,
// no tracing). For test assertions and result verification only.
func (v Float64View) Peek(i int64) float64 { return v.peek(i) }

// Poke writes element i without touching the accessor. For test setup only.
func (v Float64View) Poke(i int64, x float64) { v.poke(i, x) }

func (v Float64View) peek(i int64) float64 {
	b := v.a.data[v.off+i*8:]
	return math.Float64frombits(le64(b))
}

func (v Float64View) poke(i int64, x float64) {
	b := v.a.data[v.off+i*8:]
	put64(b, math.Float64bits(x))
}

// Int32View reads and writes int32 elements of an allocation.
type Int32View struct {
	a   *Alloc
	off int64
	n   int64
}

// Int32s views the whole allocation as int32 elements.
func Int32s(a *Alloc) Int32View { return Int32sAt(a, 0, a.Size/4) }

// Int32sAt views n int32 elements starting at byte offset off.
func Int32sAt(a *Alloc, off, n int64) Int32View {
	checkRange(a, off, n*4)
	return Int32View{a: a, off: off, n: n}
}

// Len returns the number of elements in the view.
func (v Int32View) Len() int64 { return v.n }

// Addr returns the simulated address of element i.
func (v Int32View) Addr(i int64) Addr { return v.a.Base + Addr(v.off+i*4) }

// Alloc returns the underlying allocation.
func (v Int32View) Alloc() *Alloc { return v.a }

// Load reads element i through the accessor.
func (v Int32View) Load(ex Accessor, i int64) int32 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: int32 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 4, Read)
	return v.peek(i)
}

// Store writes element i through the accessor.
func (v Int32View) Store(ex Accessor, i int64, x int32) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: int32 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 4, Write)
	v.poke(i, x)
}

// Update performs a read-modify-write of element i.
func (v Int32View) Update(ex Accessor, i int64, f func(int32) int32) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: int32 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 4, ReadWrite)
	v.poke(i, f(v.peek(i)))
}

// Peek reads element i without cost or tracing (tests only).
func (v Int32View) Peek(i int64) int32 { return v.peek(i) }

// Poke writes element i without cost or tracing (test setup only).
func (v Int32View) Poke(i int64, x int32) { v.poke(i, x) }

func (v Int32View) peek(i int64) int32 {
	b := v.a.data[v.off+i*4:]
	return int32(le32(b))
}

func (v Int32View) poke(i int64, x int32) {
	b := v.a.data[v.off+i*4:]
	put32(b, uint32(x))
}

// Uint64View reads and writes uint64 elements; used for pointer-valued
// fields such as the LULESH domain object's array pointers.
type Uint64View struct {
	a   *Alloc
	off int64
	n   int64
}

// Uint64s views the whole allocation as uint64 elements.
func Uint64s(a *Alloc) Uint64View { return Uint64sAt(a, 0, a.Size/8) }

// Uint64sAt views n uint64 elements starting at byte offset off.
func Uint64sAt(a *Alloc, off, n int64) Uint64View {
	checkRange(a, off, n*8)
	return Uint64View{a: a, off: off, n: n}
}

// Len returns the number of elements in the view.
func (v Uint64View) Len() int64 { return v.n }

// Addr returns the simulated address of element i.
func (v Uint64View) Addr(i int64) Addr { return v.a.Base + Addr(v.off+i*8) }

// Alloc returns the underlying allocation.
func (v Uint64View) Alloc() *Alloc { return v.a }

// Load reads element i through the accessor.
func (v Uint64View) Load(ex Accessor, i int64) uint64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: uint64 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 8, Read)
	return le64(v.a.data[v.off+i*8:])
}

// Store writes element i through the accessor.
func (v Uint64View) Store(ex Accessor, i int64, x uint64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: uint64 index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 8, Write)
	put64(v.a.data[v.off+i*8:], x)
}

// Peek reads element i without cost or tracing (tests only).
func (v Uint64View) Peek(i int64) uint64 { return le64(v.a.data[v.off+i*8:]) }

// ByteView reads and writes single bytes of an allocation (e.g. the input
// strings of Smith-Waterman).
type ByteView struct {
	a   *Alloc
	off int64
	n   int64
}

// Bytes views the whole allocation as bytes.
func Bytes(a *Alloc) ByteView { return BytesAt(a, 0, a.Size) }

// BytesAt views n bytes starting at byte offset off.
func BytesAt(a *Alloc, off, n int64) ByteView {
	checkRange(a, off, n)
	return ByteView{a: a, off: off, n: n}
}

// Len returns the number of bytes in the view.
func (v ByteView) Len() int64 { return v.n }

// Addr returns the simulated address of byte i.
func (v ByteView) Addr(i int64) Addr { return v.a.Base + Addr(v.off+i) }

// Alloc returns the underlying allocation.
func (v ByteView) Alloc() *Alloc { return v.a }

// Load reads byte i through the accessor.
func (v ByteView) Load(ex Accessor, i int64) byte {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: byte index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 1, Read)
	return v.a.data[v.off+i]
}

// Store writes byte i through the accessor.
func (v ByteView) Store(ex Accessor, i int64, x byte) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("memsim: byte index %d out of range [0,%d) in %s", i, v.n, v.a))
	}
	ex.Access(v.a, v.Addr(i), 1, Write)
	v.a.data[v.off+i] = x
}

// Peek reads byte i without cost or tracing (tests only).
func (v ByteView) Peek(i int64) byte { return v.a.data[v.off+i] }

// Poke writes byte i without cost or tracing (test setup only).
func (v ByteView) Poke(i int64, x byte) { v.a.data[v.off+i] = x }

// little-endian helpers; manual to keep the hot path free of interface
// calls (encoding/binary's fixed-size paths would also do, but these inline
// trivially).
func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put32(b []byte, x uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

func put64(b []byte, x uint64) {
	put32(b, uint32(x))
	put32(b[4:], uint32(x>>32))
}
