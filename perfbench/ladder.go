package main

import (
	"fmt"
	"time"

	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// counter is the counting sink of the record replays: it counts the
// non-empty batches it is handed (sweeps) and their records.
type counter struct{ sweeps, records int64 }

// Apply implements record.Sink.
func (c *counter) Apply(b []shadow.Access, _ *record.Cursor) {
	if len(b) > 0 {
		c.sweeps++
		c.records += int64(len(b))
	}
}

// table builds a shadow table holding the capture's allocations. An
// allocation overlapping an earlier one (a reused address range) is
// skipped; accesses to it resolve to the earlier entry, as the ranges
// coincide.
func (c *capture) table() *shadow.Table {
	t := shadow.NewTable()
	for _, a := range c.allocs {
		_, _ = t.InsertRange(a.Base, a.Size, a.Label, a.Kind, a.Fn)
	}
	return t
}

// ladderTotals accumulates the ladder's counts and times over captures.
type ladderTotals struct {
	scalarRecs, rangeRecs, elems, sweeps, bufferOut int64
	untracked, entries, encBytes                    int64

	scalar, ranged, buffer, shadow, heat, pat, enc, dec time.Duration
}

// ladder replays one traced op's captured batches through each layer's
// public function alone — the slot engine (Engine.Record and
// Engine.RecordRange with a counting sink, flushed at every captured
// batch boundary as the live drains were), the single-owner Buffer, the
// TableSink, the heat-map and pattern sinks, the wire encoder and the
// wire decoder — and writes each layer's cost per unit into s. Counts
// of the live drains (records, elements) default the residue's inputs.
func ladder(caps []*capture, s sample) error {
	var t ladderTotals
	for _, c := range caps {
		if err := t.replay(c); err != nil {
			return err
		}
	}
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	recs := t.scalarRecs + t.rangeRecs
	s["record.scalar_ns"] = per(t.scalar, t.scalarRecs)
	s["record.range_ns"] = per(t.ranged, t.rangeRecs)
	s["record.sweeps"] = float64(t.sweeps)
	if t.sweeps > 0 {
		s["record.records_per_sweep"] = float64(recs) / float64(t.sweeps)
	}
	s["record.buffer_ns"] = per(t.buffer, t.elems)
	if t.bufferOut > 0 {
		s["record.coalesce_x"] = float64(t.elems) / float64(t.bufferOut)
	}
	s["shadow.apply_ns_per_elem"] = per(t.shadow, t.elems)
	s["shadow.untracked"] = float64(t.untracked)
	s["shadow.entries"] = float64(t.entries)
	s["heatmap.apply_ns_per_elem"] = per(t.heat, t.elems)
	s["pattern.apply_ns_per_elem"] = per(t.pat, t.elems)
	s["wire.encode_ns_per_record"] = per(t.enc, recs)
	s["wire.decode_ns_per_record"] = per(t.dec, recs)
	if recs > 0 {
		s["wire.bytes_per_record"] = float64(t.encBytes) / float64(recs)
	}
	for k, v := range map[string]int64{"_n_scalar": t.scalarRecs, "_n_range": t.rangeRecs, "_elems": t.elems} {
		if _, set := s[k]; !set {
			s[k] = float64(v)
		}
	}
	return nil
}

func (t *ladderTotals) replay(c *capture) error {
	var recs int64
	for _, b := range c.batches {
		for i := range b {
			if b[i].Count > 1 {
				t.rangeRecs++
			} else {
				t.scalarRecs++
			}
			t.elems += b[i].Elems()
		}
		recs += int64(len(b))
	}

	// Slot engine: scalars and ranges timed in separate passes; a third,
	// untimed pass in recorded order counts the sweeps the live run made.
	pass := func(scalars, ranges bool) (time.Duration, *counter) {
		cnt := &counter{}
		e := record.NewEngine(cnt)
		t0 := time.Now()
		for _, b := range c.batches {
			took := false
			for i := range b {
				a := &b[i]
				if a.Count > 1 {
					if ranges {
						e.RecordRange(a.Dev, a.Addr, int(a.Count), int64(a.Stride), int64(a.Size), a.Kind)
						took = true
					}
				} else if scalars {
					e.Record(a.Dev, a.Addr, int64(a.Size), a.Kind)
					took = true
				}
			}
			if took {
				e.Flush()
			}
		}
		return time.Since(t0), cnt
	}
	d, _ := pass(true, false)
	t.scalar += d
	d, _ = pass(false, true)
	t.ranged += d
	_, cnt := pass(true, true)
	t.sweeps += cnt.sweeps

	// Single-owner Buffer, fed element by element as instrumented code
	// feeds it, so its append-time coalescing is part of the cost.
	bcnt := &counter{}
	buf := record.NewEngine(bcnt).NewBuffer()
	t0 := time.Now()
	for _, b := range c.batches {
		for i := range b {
			a := &b[i]
			n, stride := int64(a.Count), int64(a.Stride)
			if n <= 1 {
				n, stride = 1, 0
			}
			for k := int64(0); k < n; k++ {
				buf.Record(a.Dev, a.Addr+memsim.Addr(k*stride), int64(a.Size), a.Kind)
			}
		}
		buf.Flush()
	}
	t.buffer += time.Since(t0)
	t.bufferOut += bcnt.records

	// Table sink: bulk shadow apply with the engine's cursor cache.
	tbl := c.table()
	ts := record.NewTableSink(tbl)
	var cur record.Cursor
	t0 = time.Now()
	for _, b := range c.batches {
		ts.Apply(b, &cur)
	}
	t.shadow += time.Since(t0)
	t.untracked += ts.Untracked()
	t.entries += int64(tbl.Len())

	hm := record.NewHeatmapSink(c.table())
	t0 = time.Now()
	for _, b := range c.batches {
		hm.Apply(b, nil)
	}
	t.heat += time.Since(t0)

	ps := pattern.NewSink(c.table())
	marks := c.marks
	t0 = time.Now()
	for i, b := range c.batches {
		for len(marks) > 0 && marks[0].at == i {
			ps.BeginSpan(marks[0].name)
			marks = marks[1:]
		}
		ps.Apply(b, nil)
	}
	t.pat += time.Since(t0)

	// Wire: the encoder into a buffer already sized by an untimed pass,
	// then the frame decoder over the result.
	enc := make([]byte, 0, encodedSize(c.batches))
	t0 = time.Now()
	for _, b := range c.batches {
		enc = wire.AppendBatch(enc, b)
	}
	t.enc += time.Since(t0)
	t.encBytes += int64(len(enc))
	var decoded int64
	dec := wire.NewFrameDecoder(nil, wire.Handler{Batch: func(b []shadow.Access) { decoded += int64(len(b)) }})
	t0 = time.Now()
	err := dec.DecodePayload(enc)
	t.dec += time.Since(t0)
	if err != nil {
		return fmt.Errorf("ladder: decoding the re-encoded batches: %w", err)
	}
	if decoded != recs {
		return fmt.Errorf("ladder: decoded %d records of %d encoded", decoded, recs)
	}
	return nil
}

func encodedSize(batches [][]shadow.Access) int {
	var buf []byte
	n := 0
	for _, b := range batches {
		buf = wire.AppendBatch(buf[:0], b)
		n += len(buf)
	}
	return n
}
