package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// Transfer directions (FrameTransfer's direction byte); values match
// um.TransferDir so front ends convert with a cast.
const (
	HostToDevice = 0
	DeviceToHost = 1
)

// AllocInfo is the decoded form of a FrameAlloc: what a remote consumer
// needs to mirror the client's shadow-table insert.
type AllocInfo struct {
	ID    int
	Base  memsim.Addr
	Size  int64
	Kind  memsim.Kind
	Label string
	// Fn is the intercepted allocation function (shadow.Entry.AllocFn) —
	// carried on the wire so remote findings name the same API the
	// in-process detector would.
	Fn string
}

// TransferInfo is the decoded form of a FrameTransfer.
type TransferInfo struct {
	ID  int
	Dir byte
	Off int64
	N   int64
}

// AppendBatch appends the batch as one or more batch frames (split at
// MaxFrameRecords, so decoders can preallocate a bounded buffer).
// Addresses are delta-encoded within each frame, starting from 0.
func AppendBatch(buf []byte, batch []shadow.Access) []byte {
	for len(batch) > 0 {
		n := len(batch)
		if n > MaxFrameRecords {
			n = MaxFrameRecords
		}
		buf = append(buf, FrameBatch)
		buf = binary.AppendUvarint(buf, uint64(n))
		prev := memsim.Addr(0)
		for i := 0; i < n; i++ {
			a := &batch[i]
			buf = append(buf, byte(a.Dev), byte(a.Kind))
			buf = binary.AppendUvarint(buf, uint64(a.Size))
			buf = binary.AppendVarint(buf, int64(a.Addr)-int64(prev))
			prev = a.Addr
			buf = binary.AppendUvarint(buf, uint64(a.Count))
			if a.Count > 1 {
				buf = binary.AppendUvarint(buf, uint64(a.Stride))
			}
		}
		batch = batch[n:]
	}
	return buf
}

// AppendSpan appends a span-boundary frame. Names beyond MaxNameLen are
// truncated so the frame always decodes.
func AppendSpan(buf []byte, name string, at machine.Duration) []byte {
	buf = appendString(append(buf, FrameSpan), name)
	return binary.AppendUvarint(buf, uint64(at))
}

// AppendClock appends a clock frame.
func AppendClock(buf []byte, at machine.Duration) []byte {
	buf = append(buf, FrameClock)
	return binary.AppendUvarint(buf, uint64(at))
}

// AppendAlloc appends an allocation frame.
func AppendAlloc(buf []byte, a AllocInfo) []byte {
	buf = append(buf, FrameAlloc)
	buf = binary.AppendUvarint(buf, uint64(a.ID))
	buf = binary.AppendUvarint(buf, uint64(a.Base))
	buf = binary.AppendUvarint(buf, uint64(a.Size))
	buf = append(buf, byte(a.Kind))
	return appendString(appendString(buf, a.Label), a.Fn)
}

// AppendFree appends a free frame.
func AppendFree(buf []byte, id int) []byte {
	buf = append(buf, FrameFree)
	return binary.AppendUvarint(buf, uint64(id))
}

// AppendLabel appends a late-labeling frame.
func AppendLabel(buf []byte, id int, label string) []byte {
	buf = binary.AppendUvarint(append(buf, FrameLabel), uint64(id))
	return appendString(buf, label)
}

// AppendTransfer appends a bulk-transfer frame.
func AppendTransfer(buf []byte, tr TransferInfo) []byte {
	buf = append(buf, FrameTransfer)
	buf = binary.AppendUvarint(buf, uint64(tr.ID))
	buf = append(buf, tr.Dir)
	buf = binary.AppendUvarint(buf, uint64(tr.Off))
	return binary.AppendUvarint(buf, uint64(tr.N))
}

// AppendDiagnostic appends a diagnostic-point frame.
func AppendDiagnostic(buf []byte, title string) []byte {
	return appendString(append(buf, FrameDiagnostic), title)
}

// Handler receives decoded frames. A nil callback skips its frame kind
// (the frame is still parsed and validated).
type Handler struct {
	Batch      func(batch []shadow.Access)
	Span       func(name string, at machine.Duration)
	Clock      func(at machine.Duration)
	Alloc      func(a AllocInfo)
	Free       func(id int)
	Label      func(id int, label string)
	Transfer   func(tr TransferInfo)
	Diagnostic func(title string)
}

// Reader is what stream decoding needs: buffered byte-at-a-time reads
// for the varint framing plus bulk reads for payloads. *bufio.Reader and
// *bytes.Reader both qualify.
type Reader interface {
	io.Reader
	io.ByteReader
}

// errShort signals a frame that continues past the end of the buffer.
// Frames never span segments, so DecodePayload turns it into
// io.ErrUnexpectedEOF.
var errShort = errors.New("wire: short frame")

// sreader is a bounds-checked cursor over an in-memory frame buffer.
// Decoding frames from a slice rather than an io.ByteReader keeps the
// per-field cost at a few instructions instead of an interface call —
// the aggregator's ingest throughput rides on this loop.
type sreader struct {
	p []byte
	i int
}

func (s *sreader) byte() (byte, error) {
	if s.i >= len(s.p) {
		return 0, errShort
	}
	b := s.p[s.i]
	s.i++
	return b, nil
}

func (s *sreader) uvarint() (uint64, error) {
	// Fast path: most fields (sizes, counts, small ids) are one byte.
	if s.i < len(s.p) {
		if b := s.p[s.i]; b < 0x80 {
			s.i++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(s.p[s.i:])
	if n == 0 {
		return 0, errShort
	}
	if n < 0 {
		return 0, errors.New("wire: varint overflows 64 bits")
	}
	s.i += n
	return v, nil
}

func (s *sreader) varint() (int64, error) {
	if s.i < len(s.p) {
		if b := s.p[s.i]; b < 0x80 {
			s.i++
			return int64(b>>1) ^ -int64(b&1), nil
		}
	}
	v, n := binary.Varint(s.p[s.i:])
	if n == 0 {
		return 0, errShort
	}
	if n < 0 {
		return 0, errors.New("wire: varint overflows 64 bits")
	}
	s.i += n
	return v, nil
}

// str reads one uvarint-length-prefixed string bounded by MaxNameLen.
func (s *sreader) str(what string) (string, error) {
	n, err := s.uvarint()
	if err != nil {
		return "", err
	}
	if n > MaxNameLen {
		return "", fmt.Errorf("wire: %s length %d exceeds %d", what, n, MaxNameLen)
	}
	if s.i+int(n) > len(s.p) {
		return "", errShort
	}
	v := string(s.p[s.i : s.i+int(n)])
	s.i += int(n)
	return v, nil
}

// FrameDecoder decodes the frames of one segment payload (no header, no
// segment framing; ReadStream handles those) and dispatches each frame to
// its Handler as soon as it is decoded. The slice passed to Handler.Batch
// is reused for the next batch frame, so a handler applies the batch
// before it returns and does not retain it.
type FrameDecoder struct {
	h     Handler
	batch []shadow.Access
}

// NewFrameDecoder returns a decoder dispatching to h. Frames are decoded
// from in-memory payloads (DecodePayload), so the reader argument is
// unused; pass nil.
func NewFrameDecoder(_ Reader, h Handler) *FrameDecoder {
	return &FrameDecoder{h: h}
}

// DecodePayload decodes a complete in-memory frame sequence (a segment
// payload). A frame truncated by the end of the buffer is
// io.ErrUnexpectedEOF — frames never span segments.
func (d *FrameDecoder) DecodePayload(p []byte) error {
	consumed, err := d.decodeAll(p)
	if err == errShort {
		return fmt.Errorf("wire: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	if err == nil && consumed != len(p) {
		// decodeAll only stops early on error; defensive.
		return fmt.Errorf("wire: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// decodeAll decodes and dispatches every complete frame in p, returning
// how many bytes it consumed. errShort reports a trailing partial frame
// (nothing of it consumed); any other error is positioned at the frame
// that failed.
func (d *FrameDecoder) decodeAll(p []byte) (int, error) {
	off := 0
	for off < len(p) {
		n, err := d.decodeOne(p[off:])
		if err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}

// decodeOne decodes a single frame at the start of p and dispatches it,
// returning its encoded length.
func (d *FrameDecoder) decodeOne(p []byte) (int, error) {
	s := sreader{p: p}
	tag, err := s.byte()
	if err != nil {
		return 0, err
	}
	switch tag {
	case FrameBatch:
		if err := d.decodeBatch(&s); err != nil {
			return 0, err
		}
	case FrameSpan:
		name, err := s.str("span name")
		if err != nil {
			return 0, err
		}
		at, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		if d.h.Span != nil {
			d.h.Span(name, machine.Duration(at))
		}
	case FrameClock:
		at, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		if d.h.Clock != nil {
			d.h.Clock(machine.Duration(at))
		}
	case FrameAlloc:
		id, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		base, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		size, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		if size > math.MaxInt64 {
			return 0, fmt.Errorf("wire: alloc frame size %d overflows", size)
		}
		kind, err := s.byte()
		if err != nil {
			return 0, err
		}
		label, err := s.str("alloc label")
		if err != nil {
			return 0, err
		}
		fn, err := s.str("alloc fn")
		if err != nil {
			return 0, err
		}
		if d.h.Alloc != nil {
			d.h.Alloc(AllocInfo{ID: int(id), Base: memsim.Addr(base), Size: int64(size), Kind: memsim.Kind(kind), Label: label, Fn: fn})
		}
	case FrameFree:
		id, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		if d.h.Free != nil {
			d.h.Free(int(id))
		}
	case FrameLabel:
		id, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		label, err := s.str("label")
		if err != nil {
			return 0, err
		}
		if d.h.Label != nil {
			d.h.Label(int(id), label)
		}
	case FrameTransfer:
		id, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		dir, err := s.byte()
		if err != nil {
			return 0, err
		}
		if dir != HostToDevice && dir != DeviceToHost {
			return 0, fmt.Errorf("wire: transfer frame direction %#x", dir)
		}
		off, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		n, err := s.uvarint()
		if err != nil {
			return 0, err
		}
		if d.h.Transfer != nil {
			d.h.Transfer(TransferInfo{ID: int(id), Dir: dir, Off: int64(off), N: int64(n)})
		}
	case FrameDiagnostic:
		title, err := s.str("diagnostic title")
		if err != nil {
			return 0, err
		}
		if d.h.Diagnostic != nil {
			d.h.Diagnostic(title)
		}
	default:
		return 0, fmt.Errorf("wire: corrupt input (frame tag %#x)", tag)
	}
	return s.i, nil
}

// decodeBatch decodes one batch frame into the reused batch buffer.
func (d *FrameDecoder) decodeBatch(s *sreader) error {
	n, err := s.uvarint()
	if err != nil {
		return err
	}
	if n > MaxFrameRecords {
		return fmt.Errorf("wire: batch frame of %d records exceeds %d", n, MaxFrameRecords)
	}
	if d.batch == nil {
		d.batch = make([]shadow.Access, 0, MaxFrameRecords)
	}
	batch := d.batch[:0]
	if err := decodeRecords(s, &batch, n); err != nil {
		return err
	}
	d.batch = batch
	if d.h.Batch != nil {
		d.h.Batch(batch)
	}
	return nil
}

// decodeRecords decodes n records of a batch frame into *batch.
func decodeRecords(s *sreader, batch *[]shadow.Access, n uint64) error {
	prev := memsim.Addr(0)
	for i := uint64(0); i < n; i++ {
		var a shadow.Access
		dev, err := s.byte()
		if err != nil {
			return err
		}
		kind, err := s.byte()
		if err != nil {
			return err
		}
		size, err := s.uvarint()
		if err != nil {
			return err
		}
		delta, err := s.varint()
		if err != nil {
			return err
		}
		count, err := s.uvarint()
		if err != nil {
			return err
		}
		if size > math.MaxInt32 || count > math.MaxInt32 {
			return fmt.Errorf("wire: batch record fields overflow (size %d, count %d)", size, count)
		}
		a.Dev, a.Kind, a.Size = machine.Device(dev), memsim.AccessKind(kind), int32(size)
		a.Addr = memsim.Addr(int64(prev) + delta)
		prev = a.Addr
		a.Count = int32(count)
		if a.Count > 1 {
			stride, err := s.uvarint()
			if err != nil {
				return err
			}
			if stride > math.MaxInt32 {
				return fmt.Errorf("wire: batch record stride %d overflows", stride)
			}
			a.Stride = int32(stride)
		}
		*batch = append(*batch, a)
	}
	return nil
}
