package main

import "time"

// perLayer names the traced run's metrics and their units, in print
// order. README.md maps each to the end-to-end metric it should move.
// A layer a workload bypasses reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"cuda.untraced_ms", "ms"},
	{"cuda.kernels", "count"},
	{"trace.access_calls", "count"},
	{"trace.range_calls", "count"},
	{"trace.range_elems", "count"},
	{"trace.transfers", "count"},
	{"trace.drain_calls", "count"},
	{"trace.drain_ms", "ms"},
	{"record.scalar_ns", "ns"},
	{"record.range_ns", "ns"},
	{"record.sweeps", "count"},
	{"record.records_per_sweep", "count"},
	{"record.buffer_ns", "ns"},
	{"record.coalesce_x", "x"},
	{"shadow.apply_ns_per_elem", "ns"},
	{"shadow.untracked", "count"},
	{"shadow.entries", "count"},
	{"heatmap.apply_ns_per_elem", "ns"},
	{"pattern.apply_ns_per_elem", "ns"},
	{"diag.ms", "ms"},
	{"diag.calls", "count"},
	{"diag.findings", "count"},
	{"whatif.ms", "ms"},
	{"whatif.events", "count"},
	{"wire.encode_ns_per_record", "ns"},
	{"wire.decode_ns_per_record", "ns"},
	{"wire.bytes_per_record", "B"},
	{"agg.ingest_ms", "ms"},
	{"agg.stalls", "count"},
	{"agg.report_ms", "ms"},
	{"agg.snapshot_builds", "count"},
	{"agg.snapshot_hit_ratio", "ratio"},
	{"agg.decode_errors", "count"},
	{"xplrt.trace_ns", "ns"},
	{"xplrt.report_ms", "ms"},
	{"bench.residue_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.poll_late_ms", "ms"},
	{"bench.op_p50_ms", "ms"},
	{"bench.records_per_s", "1/s"},
	{"bench.snapshot_p50_ms", "ms"},
}

func medianOf(ss []sample, key string) float64 {
	xs := make([]float64, 0, len(ss))
	for _, s := range ss {
		xs = append(xs, s[key])
	}
	return median(xs)
}

// accounted is the part of one traced op's time the layers explain: each
// layer's measured cost per unit (from the ladder) times the op's count
// of that unit, plus the analysis calls timed directly by spans.
func accounted(s sample) float64 {
	ns := s["record.scalar_ns"]*s["_n_scalar"] +
		s["record.range_ns"]*s["_n_range"] +
		s["record.buffer_ns"]*s["_n_buffer"] +
		s["wire.decode_ns_per_record"]*s["_n_decode"]
	apply := s["shadow.apply_ns_per_elem"]
	if s["_all_sinks"] == 1 {
		apply += s["heatmap.apply_ns_per_elem"] + s["pattern.apply_ns_per_elem"]
	}
	ns += apply * s["_elems"]
	return ns/1e6 + s["_analysis_ms"]
}

// perLayerMetrics reduces the traced run: a is its untraced half, b its
// traced half. Every per-op value is a median over b's ops. The overhead
// and the residue read the measured side, the one the tracer and the
// ladder touch. The bench.* absolute times are the workload's op_p50_ms,
// records_per_s and snapshot_p50_ms over a, with tracing off.
func perLayerMetrics(w workload, a, b *pairs) map[string]metric {
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = medianOf(b.samples, m.name)
	}
	for k, v := range w.layers(a, b) {
		vals[k] = v
	}
	e := w.endToEnd(a)
	for _, k := range []string{"op_p50_ms", "records_per_s", "snapshot_p50_ms"} {
		vals["bench."+k] = e[k]
	}
	opA, opB := median(a.mMs), median(b.mMs)
	base := opA - vals["cuda.untraced_ms"]
	vals["bench.trace_overhead_pct"] = (opB - opA) / opA * 100
	vals["bench.residue_pct"] = (base - medianOf(b.samples, "_accounted_ms")) / base * 100
	late := make([]float64, len(b.snaps))
	for i, s := range b.snaps {
		late[i] = ms(s.late)
	}
	vals["bench.poll_late_ms"] = median(late)
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: finite(vals[m.name]), Unit: m.unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
