// Package wire is XPlacer's versioned binary trace format: the one log
// format every trace consumer reads. A traced program's pipeline.Pipeline
// writes it through the StreamSinks attached to it, and the same stream
// goes to a trace file for later ingest, over a socket to a long-running
// aggregator (cmd/xplagg), or to the temporary log `xplacer
// -trace-budget` replays; each consumer decodes it into a pipeline of
// its own.
//
// The format has three layers:
//
//  1. Header: every stream starts with the 4-byte magic "XPLT" followed
//     by a uvarint format version. Decoders reject unknown versions with
//     an error naming the found and supported versions, so a stale
//     aggregator fails loudly instead of misparsing.
//
//  2. Frames: the unit of trace content. Each frame is a one-byte tag
//     plus varint-encoded fields; batch frames delta-encode addresses
//     against the previous record of the same frame, so a coalesced sweep
//     costs a handful of bytes. See the tag constants for the per-frame
//     layouts.
//
//  3. Segments: frames are grouped into checksummed segments — tag,
//     uvarint payload length, payload, CRC-32 (IEEE) of the payload —
//     bracketed by a hello segment carrying the client's tenant/process
//     identity and platform preset, and a bye segment carrying exact
//     sent/dropped totals for loss accounting.
//
// Decoding is allocation-bounded by construction: batch frames carry at
// most MaxFrameRecords records, names and labels at most MaxNameLen
// bytes, segment payloads at most MaxSegmentBytes — a corrupt or
// adversarial length can never make a decoder over-allocate, it returns
// an error instead. The fuzz harness in fuzz_test.go pins this.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Magic identifies an XPlacer trace stream.
const Magic = "XPLT"

// Version is the current format version. History:
//
//	1 — initial versioned format: batch/span/clock frames,
//	    alloc/free/label/transfer frames, and the hello/frames/bye
//	    segment transport.
const Version = 1

// Decode limits. Every length field is checked against these before any
// allocation, so corrupt input produces errors, not huge allocations.
const (
	// MaxFrameRecords bounds one batch frame's record count; producers
	// split larger batches across frames.
	MaxFrameRecords = 4096
	// MaxNameLen bounds span names and allocation labels.
	MaxNameLen = 4096
	// MaxSegmentBytes bounds one segment payload.
	MaxSegmentBytes = 1 << 20
)

// Frame tags. Batch, span, and clock carry the access stream; alloc,
// free, label, and transfer carry the shadow-table life cycle, so a
// consumer can rebuild the client's shadow table.
const (
	// FrameBatch: uvarint record count, then per record dev byte, kind
	// byte, uvarint size, svarint address delta (against the previous
	// record's address, starting from 0 each frame), uvarint count, and —
	// only when count > 1 — uvarint stride. The RLE range record
	// (shadow.Access) is the on-wire unit; scalar accesses encode count 0.
	FrameBatch = 0x01
	// FrameSpan: uvarint name length, name bytes, uvarint simulated time.
	// Written at kernel-launch drain points so consumers attribute
	// accesses to the same spans an in-process sink would.
	FrameSpan = 0x02
	// FrameClock: uvarint simulated time; written whenever the simulated
	// clock moved since the last frame.
	FrameClock = 0x03
	// FrameAlloc: uvarint alloc id, uvarint base address, uvarint size,
	// kind byte, uvarint label length + label, uvarint alloc-fn length +
	// alloc-fn (the intercepted allocation function, e.g.
	// "cudaMallocManaged"). Mirrors the tracer's TraceAlloc so a remote
	// consumer can maintain the shadow table.
	FrameAlloc = 0x04
	// FrameFree: uvarint alloc id (delayed shadow release, like
	// TraceFree).
	FrameFree = 0x05
	// FrameLabel: uvarint alloc id, uvarint label length + label (late
	// labeling, like Tracer.Name).
	FrameLabel = 0x06
	// FrameTransfer: uvarint alloc id, direction byte (0 host-to-device,
	// 1 device-to-host), uvarint offset, uvarint byte count. Mirrors
	// TraceTransfer's bulk shadow effect and transfer byte accounting.
	FrameTransfer = 0x07
)

// Segment tags (stream transport).
const (
	// SegHello opens a stream: uvarint-length-prefixed tenant, process,
	// and platform strings, then a policy byte (0 block, 1 drop).
	SegHello = 0x10
	// SegFrames carries a run of frames as its payload.
	SegFrames = 0x11
	// SegBye closes a stream: uvarint batches, records, dropped segments,
	// dropped records, dropped bytes — the producer's exact totals, so
	// the receiver can account for loss.
	SegBye = 0x12
)

// VersionError reports a header whose version this package does not
// decode.
type VersionError struct {
	Found     uint64
	Supported uint64
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported format version %d (supported: %d)", e.Found, e.Supported)
}

// AppendHeader appends the magic and current version to buf.
func AppendHeader(buf []byte) []byte {
	buf = append(buf, Magic...)
	return binary.AppendUvarint(buf, Version)
}

// ReadHeader consumes and validates the header. A wrong magic or an
// unsupported version is an error naming what was found.
func ReadHeader(r io.ByteReader) error {
	var magic [len(Magic)]byte
	for i := range magic {
		b, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("wire: truncated header: %w", unexpectEOF(err))
		}
		magic[i] = b
	}
	if string(magic[:]) != Magic {
		return fmt.Errorf("wire: bad magic %q (not an XPlacer trace)", magic[:])
	}
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("wire: truncated header version: %w", unexpectEOF(err))
	}
	if v != Version {
		return &VersionError{Found: v, Supported: Version}
	}
	return nil
}

// unexpectEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a header,
// frame, or segment, running out of bytes is truncation, not a clean end.
func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
