package diag

import (
	"fmt"
	"io"
	"text/tabwriter"

	"xplacer/internal/machine"
	"xplacer/internal/pattern"
)

// PatternRow is one classified access stream: what one kernel span (or the
// host window around it) did to one allocation from one device, reported
// in the report's "access patterns" block and under the JSON key
// "patterns.streams".
type PatternRow struct {
	// SpanSeq orders the kernel spans; span 0 is the pre-first-kernel
	// window. Span names the kernel ("(start)" for span 0).
	SpanSeq int    `json:"span"`
	Span    string `json:"kernel"`
	// AtPs is the simulated time the span began (0 when the sink had no
	// clock).
	AtPs machine.Duration `json:"atPs,omitempty"`
	// Alloc / AllocID name the allocation the stream touched.
	Alloc   string `json:"alloc"`
	AllocID int    `json:"allocID"`
	// Dev is the accessing device ("CPU" or "GPU").
	Dev string `json:"dev"`
	// Class is the pattern.Class name; StrideBytes the dominant stride of
	// strided walks; ElemBytes the element size; Samples the delta count
	// the verdict rests on.
	Class       string `json:"class"`
	StrideBytes int64  `json:"strideBytes,omitempty"`
	ElemBytes   int64  `json:"elemBytes,omitempty"`
	Samples     int64  `json:"samples"`
	// PenaltyPct is the coalescing multiplier the cost model derives from
	// the class (percent extra memory time; GPU streams only in practice).
	PenaltyPct int `json:"penaltyPct"`
}

// PatternAlloc is the per-allocation pattern digest: the class of the
// allocation's dominant (most-sampled) GPU stream — or CPU stream if the
// GPU never touched it — with the kernel span it was observed in. It is
// the "pattern" block of each allocation in the v2 JSON schema.
type PatternAlloc struct {
	Class       string `json:"class"`
	Dev         string `json:"dev"`
	Span        string `json:"kernel,omitempty"`
	StrideBytes int64  `json:"strideBytes,omitempty"`
	Samples     int64  `json:"samples"`
	PenaltyPct  int    `json:"penaltyPct"`
}

// PatternsSummary is the report form of a pattern.Sink: every classified
// (span, allocation, device) stream plus a per-allocation digest.
type PatternsSummary struct {
	// MaxPenaltyPct echoes the platform's CoalescePenaltyPct the stream
	// penalties were scaled against.
	MaxPenaltyPct int          `json:"maxPenaltyPct"`
	Rows          []PatternRow `json:"streams"`

	byID    map[int]*PatternAlloc
	byLabel map[string]*PatternAlloc
}

// SummarizePatterns classifies the sink's streams and builds the summary,
// scaling penalties against maxPct (the platform's CoalescePenaltyPct).
// Call it with recording quiescent — after a flush, typically right after
// the final diagnostic.
func SummarizePatterns(ps *pattern.Sink, maxPct int) *PatternsSummary {
	sum := &PatternsSummary{
		MaxPenaltyPct: maxPct,
		byID:          map[int]*PatternAlloc{},
		byLabel:       map[string]*PatternAlloc{},
	}
	for _, r := range ps.Rows() {
		label := r.Alloc
		if label == "" {
			label = fmt.Sprintf("alloc#%d", r.AllocID)
		}
		row := PatternRow{
			SpanSeq:     r.SpanSeq,
			Span:        r.Span,
			AtPs:        r.Start,
			Alloc:       label,
			AllocID:     r.AllocID,
			Dev:         r.Dev.String(),
			Class:       r.Result.Class.String(),
			StrideBytes: r.Result.Stride,
			ElemBytes:   r.Result.Elem,
			Samples:     r.Result.Samples,
			PenaltyPct:  r.Result.PenaltyPct(maxPct),
		}
		sum.Rows = append(sum.Rows, row)

		// Per-allocation digest: prefer the most-sampled GPU stream (the
		// coalescing-relevant one); fall back to the most-sampled CPU
		// stream for host-only allocations.
		cur := sum.byID[row.AllocID]
		better := cur == nil ||
			(row.Dev == "GPU" && cur.Dev != "GPU") ||
			(row.Dev == cur.Dev && row.Samples > cur.Samples)
		if better {
			pa := &PatternAlloc{
				Class:       row.Class,
				Dev:         row.Dev,
				Span:        row.Span,
				StrideBytes: row.StrideBytes,
				Samples:     row.Samples,
				PenaltyPct:  row.PenaltyPct,
			}
			sum.byID[row.AllocID] = pa
			sum.byLabel[label] = pa
		}
	}
	return sum
}

// Alloc returns the per-allocation digest for an allocation ID, or nil.
func (s *PatternsSummary) Alloc(id int) *PatternAlloc {
	if s == nil {
		return nil
	}
	return s.byID[id]
}

// AnnotateHeatmap copies each allocation's pattern class onto the matching
// heat-map row (by label), so the heat map shows how the hot words were
// walked, not just how often.
func (s *PatternsSummary) AnnotateHeatmap(h *HeatmapSummary) {
	if s == nil || h == nil {
		return
	}
	for i := range h.Allocs {
		if pa := s.byLabel[h.Allocs[i].Label]; pa != nil {
			h.Allocs[i].Pattern = pa.Class
		}
	}
}

// Text writes the streams as an aligned table in span order.
func (s *PatternsSummary) Text(w io.Writer) {
	fmt.Fprintf(w, "--- access patterns (%d streams) ---\n", len(s.Rows))
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tkernel\talloc\tdev\tclass\tstride\tsamples\tpenalty")
	for _, r := range s.Rows {
		stride := "-"
		if r.StrideBytes != 0 {
			stride = fmt.Sprintf("%dB", r.StrideBytes)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%d\t+%d%%\n",
			r.SpanSeq, r.Span, r.Alloc, r.Dev, r.Class, stride, r.Samples, r.PenaltyPct)
	}
	tw.Flush()
	fmt.Fprintln(w)
}
