package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// ErrChecksum marks a segment whose payload failed CRC verification.
// Receivers match it with errors.Is to count corruption separately from
// structural decode errors.
var ErrChecksum = errors.New("wire: segment checksum mismatch")

// Hello is a stream's opening handshake: who is sending (tenant and
// process identity), which platform preset priced the client's simulated
// clock, and which backpressure policy the client runs under.
type Hello struct {
	Tenant   string
	Process  string
	Platform string
	// Policy is the client's backpressure policy (0 block, 1 drop) — for
	// observability; a receiver must consult the bye totals either way.
	Policy byte
}

// Bye is a stream's closing summary: the producer's exact applied and
// dropped totals, so the receiver can account for loss without trusting
// its own counts.
type Bye struct {
	Batches         int64
	Records         int64
	DroppedSegments int64
	DroppedRecords  int64
	DroppedBytes    int64
}

// AppendSegment appends one framed segment: tag, uvarint payload length,
// payload, CRC-32 (IEEE) of the payload in little-endian order.
func AppendSegment(buf []byte, tag byte, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	return append(buf, sum[:]...)
}

// AppendHello appends h as a hello segment payload.
func AppendHello(buf []byte, h Hello) []byte {
	buf = appendString(buf, h.Tenant)
	buf = appendString(buf, h.Process)
	buf = appendString(buf, h.Platform)
	return append(buf, h.Policy)
}

// AppendBye appends b as a bye segment payload.
func AppendBye(buf []byte, b Bye) []byte {
	buf = binary.AppendUvarint(buf, uint64(b.Batches))
	buf = binary.AppendUvarint(buf, uint64(b.Records))
	buf = binary.AppendUvarint(buf, uint64(b.DroppedSegments))
	buf = binary.AppendUvarint(buf, uint64(b.DroppedRecords))
	return binary.AppendUvarint(buf, uint64(b.DroppedBytes))
}

// appendString appends s, cut to MaxNameLen, after its uvarint length.
func appendString(buf []byte, s string) []byte {
	if len(s) > MaxNameLen {
		s = s[:MaxNameLen]
	}
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(r Reader, what string) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", unexpectEOF(err)
	}
	if n > MaxNameLen {
		return "", fmt.Errorf("wire: %s length %d exceeds %d", what, n, MaxNameLen)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", unexpectEOF(err)
	}
	return string(buf), nil
}

func decodeHello(payload []byte) (Hello, error) {
	r := bytes.NewReader(payload)
	var h Hello
	var err error
	if h.Tenant, err = readString(r, "tenant"); err != nil {
		return h, err
	}
	if h.Process, err = readString(r, "process"); err != nil {
		return h, err
	}
	if h.Platform, err = readString(r, "platform"); err != nil {
		return h, err
	}
	if h.Policy, err = r.ReadByte(); err != nil {
		return h, fmt.Errorf("wire: truncated hello: %w", unexpectEOF(err))
	}
	return h, nil
}

func decodeBye(payload []byte) (Bye, error) {
	r := bytes.NewReader(payload)
	var b Bye
	for _, p := range []*int64{&b.Batches, &b.Records, &b.DroppedSegments, &b.DroppedRecords, &b.DroppedBytes} {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return b, fmt.Errorf("wire: truncated bye: %w", unexpectEOF(err))
		}
		*p = int64(v)
	}
	return b, nil
}

// StreamHandler receives a decoded stream. Hello is called once, first;
// the Handler it returns consumes the stream's frames (a tenant-routing
// receiver picks per-process state here). Bye, if non-nil, receives the
// closing totals.
type StreamHandler struct {
	Hello func(h Hello) (Handler, error)
	Bye   func(b Bye)
	// Batches, when non-nil, puts the stream's frame decoder in
	// pooled-batch mode (see FrameDecoder.SetBatchPool): Handler.Batch
	// owns each decoded batch and the consumer recycles it after apply.
	// Required for pipelined receivers that apply on another goroutine.
	Batches *BatchPool
}

// payloadPool recycles segment scratch buffers across ReadStream calls,
// so a long-running receiver ingesting many short streams does not
// allocate a fresh segment buffer per connection.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// ReadStream decodes one complete stream from r: header, hello segment,
// frame segments, optional bye. EOF at a segment boundary after the hello
// is a clean end (clients may die mid-stream; the bye is how graceful
// ends are told apart); EOF anywhere inside a segment, a checksum
// mismatch, or a malformed frame is an error. Segments after a bye are
// rejected.
func ReadStream(r Reader, h StreamHandler) error {
	if err := ReadHeader(r); err != nil {
		return err
	}
	scratch := payloadPool.Get().(*[]byte)
	defer payloadPool.Put(scratch)
	var (
		payload  = *scratch
		fd       *FrameDecoder
		seenBye  bool
		seenHelo bool
	)
	defer func() { *scratch = payload[:0] }()
	for {
		tag, err := r.ReadByte()
		if err == io.EOF {
			if !seenHelo {
				return fmt.Errorf("wire: stream ended before hello: %w", io.ErrUnexpectedEOF)
			}
			return nil
		}
		if err != nil {
			return err
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("wire: truncated segment length: %w", unexpectEOF(err))
		}
		if n > MaxSegmentBytes {
			return fmt.Errorf("wire: segment of %d bytes exceeds %d", n, MaxSegmentBytes)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("wire: truncated segment: %w", unexpectEOF(err))
		}
		var sum [4]byte
		if _, err := io.ReadFull(r, sum[:]); err != nil {
			return fmt.Errorf("wire: truncated segment checksum: %w", unexpectEOF(err))
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum[:]) {
			return fmt.Errorf("%w (segment tag %#x)", ErrChecksum, tag)
		}
		if seenBye {
			return fmt.Errorf("wire: segment %#x after bye", tag)
		}
		switch tag {
		case SegHello:
			if seenHelo {
				return errors.New("wire: duplicate hello segment")
			}
			hello, err := decodeHello(payload)
			if err != nil {
				return err
			}
			var fh Handler
			if h.Hello != nil {
				if fh, err = h.Hello(hello); err != nil {
					return err
				}
			}
			fd = NewFrameDecoder(nil, fh)
			if h.Batches != nil {
				fd.SetBatchPool(h.Batches)
			}
			seenHelo = true
		case SegFrames:
			if !seenHelo {
				return errors.New("wire: frames segment before hello")
			}
			if err := fd.DecodePayload(payload); err != nil {
				return err
			}
		case SegBye:
			if !seenHelo {
				return errors.New("wire: bye segment before hello")
			}
			bye, err := decodeBye(payload)
			if err != nil {
				return err
			}
			if h.Bye != nil {
				h.Bye(bye)
			}
			seenBye = true
		default:
			return fmt.Errorf("wire: unknown segment tag %#x", tag)
		}
	}
}
