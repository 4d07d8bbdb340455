// Package diag produces XPlacer's diagnostic output (paper §III-D, Fig. 4):
// per-allocation summaries of the recorded shadow state — write counts per
// device, read counts split by the origin of the value (C>C, C>G, G>C,
// G>G), access density, alternating-access element counts — plus the
// anti-pattern findings of internal/detect, as text, CSV, or graphical
// (ASCII) access maps like Figs. 5, 7, 8, and 10.
//
// The runtime bodies of the paper's "#pragma xpl diagnostic
// tracePrint(...)" — core.Session.Diagnostic and xplrt.TracePrint —
// analyze the shadow memory with Analyze, emit the report, and reset the
// interval state.
package diag

import (
	"fmt"
	"io"
	"strings"

	"xplacer/internal/adapt"
	"xplacer/internal/detect"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
	"xplacer/internal/whatif"
)

// AllocSummary is the Fig. 4 summary line set for one allocation.
type AllocSummary struct {
	// Label names the allocation (XplAllocData expansion); AllocID is the
	// space-unique allocation id it summarizes.
	Label   string
	AllocID int
	// Kind is the allocation family; Words the traced word count.
	Kind  memsim.Kind
	Words int
	// Freed marks allocations released before this diagnostic.
	Freed bool
	// WriteC / WriteG count addresses written by CPU / GPU (an address
	// written several times by one device counts once).
	WriteC, WriteG int
	// ReadCC..ReadGG count addresses read per (origin > reader) category.
	ReadCC, ReadCG, ReadGC, ReadGG int
	// TouchedWords and DensityPct give the access density.
	TouchedWords int
	DensityPct   int
	// Alternating counts elements with alternating CPU/GPU accesses.
	Alternating int
	// TransferredIn / TransferredOut are explicit memcpy byte counts.
	TransferredIn, TransferredOut int64
	// Kernels names the kernel spans of the diagnostic interval that
	// touched this allocation (filled in by Attribute).
	Kernels []string
}

// Summarize computes the summary of one shadow entry.
func Summarize(e *shadow.Entry) AllocSummary { return summarize(e, e.Census()) }

// summarize is Summarize over a census already taken of e.
func summarize(e *shadow.Entry, c shadow.Census) AllocSummary {
	s := AllocSummary{
		Label:          e.Label,
		AllocID:        e.AllocID,
		Kind:           e.Kind,
		Words:          e.Words(),
		Freed:          e.Freed,
		WriteC:         c.CPUWrote,
		WriteG:         c.GPUWrote,
		ReadCC:         c.ReadCC,
		ReadCG:         c.ReadCG,
		ReadGC:         c.ReadGC,
		ReadGG:         c.ReadGG,
		Alternating:    detect.AlternatingOf(e, c),
		TransferredIn:  e.TransferredIn,
		TransferredOut: e.TransferredOut,
	}
	if s.Label == "" {
		s.Label = fmt.Sprintf("alloc#%d", e.AllocID)
	}
	s.TouchedWords, s.DensityPct = detect.DensityOf(e, c)
	return s
}

// Report is one diagnostic invocation's result.
type Report struct {
	// Title labels the diagnostic point (e.g. "after timestep 2").
	Title string
	// Allocs summarizes every traced allocation, SMT order.
	Allocs []AllocSummary
	// Findings lists detected anti-patterns.
	Findings []detect.Finding
	// Heatmap holds the access-frequency summary when a
	// record.HeatmapSink observed the run (see SummarizeHeatmap); nil
	// otherwise.
	Heatmap *HeatmapSummary
	// Patterns holds the access-pattern classification when a pattern.Sink
	// observed the run (see SummarizePatterns); nil otherwise.
	Patterns *PatternsSummary
	// WhatIf holds the placement what-if analysis when the run was
	// captured and analyzed (cmd/xplacer -whatif); nil otherwise.
	WhatIf *whatif.Result
	// Adaptive holds the online controller's decision log when a run was
	// steered by one (cmd/xplacer -adapt); nil otherwise.
	Adaptive *adapt.Report
}

// Analyze computes a report — per-allocation summaries and findings —
// over shadow entries (a table's Entries, in SMT order) without resetting
// them. Every front end assembles its reports through it. It takes one
// census per entry and hands it to both the summary and the detectors,
// so all their counts come from one pass over the entry's shadow bytes
// (the transfer detectors still walk an explicitly copied allocation's
// words for their blocks).
func Analyze(entries []*shadow.Entry, title string, opt detect.Options) Report {
	r := Report{Title: title}
	for _, e := range entries {
		c := e.Census()
		r.Allocs = append(r.Allocs, summarize(e, c))
		r.Findings = append(r.Findings, detect.ScanCensus(e, c, opt)...)
	}
	return r
}

// Text writes the summary block of one allocation in the paper's Fig. 4
// format.
func (s *AllocSummary) Text(w io.Writer) {
	freed := ""
	if s.Freed {
		freed = "   [freed]"
	}
	fmt.Fprintf(w, "%s%s\n", s.Label, freed)
	fmt.Fprintf(w, "write counts                    write>read counts\n")
	fmt.Fprintf(w, "%8s %8s     %8s %8s %8s %8s\n", "C", "G", "C>C", "C>G", "G>C", "G>G")
	fmt.Fprintf(w, "%8d %8d     %8d %8d %8d %8d\n",
		s.WriteC, s.WriteG, s.ReadCC, s.ReadCG, s.ReadGC, s.ReadGG)
	fmt.Fprintf(w, "access density (in %%): %d\n", s.DensityPct)
	fmt.Fprintf(w, "%d elements with alternating accesses\n", s.Alternating)
	if s.TransferredIn > 0 || s.TransferredOut > 0 {
		fmt.Fprintf(w, "explicit transfers: %d bytes in, %d bytes out\n", s.TransferredIn, s.TransferredOut)
	}
	if len(s.Kernels) > 0 {
		fmt.Fprintf(w, "touched by: %s\n", kernelList(s.Kernels))
	}
	fmt.Fprintln(w)
}

// Text writes the report in the paper's Fig. 4 format.
func (r *Report) Text(w io.Writer) {
	if r.Title != "" {
		fmt.Fprintf(w, "=== %s ===\n", r.Title)
	}
	fmt.Fprintf(w, "*** checking %d named allocations\n", len(r.Allocs))
	for i := range r.Allocs {
		r.Allocs[i].Text(w)
	}
	if len(r.Findings) > 0 {
		fmt.Fprintf(w, "--- %d anti-pattern finding(s) ---\n", len(r.Findings))
		for _, f := range r.Findings {
			fmt.Fprintf(w, "%s\n", f)
			if len(f.Kernels) > 0 {
				fmt.Fprintf(w, "    during: %s\n", kernelList(f.Kernels))
			}
			fmt.Fprintf(w, "    remedy: %s\n", f.Kind.Remedy())
		}
	}
	if r.Heatmap != nil {
		r.Heatmap.Text(w)
	}
	if r.Patterns != nil {
		r.Patterns.Text(w)
	}
}

// CSV writes the report as comma-separated rows for further processing
// ("raw comma-separated files", §III-D). The header row is:
// alloc,kind,words,writeC,writeG,readCC,readCG,readGC,readGG,densityPct,alternating,bytesIn,bytesOut
func (r *Report) CSV(w io.Writer) {
	fmt.Fprintln(w, "alloc,kind,words,writeC,writeG,readCC,readCG,readGC,readGG,densityPct,alternating,bytesIn,bytesOut")
	for _, s := range r.Allocs {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			csvEscape(s.Label), s.Kind, s.Words,
			s.WriteC, s.WriteG, s.ReadCC, s.ReadCG, s.ReadGC, s.ReadGG,
			s.DensityPct, s.Alternating, s.TransferredIn, s.TransferredOut)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Find returns the summary for the given label, or nil.
func (r *Report) Find(label string) *AllocSummary {
	for i := range r.Allocs {
		if r.Allocs[i].Label == label {
			return &r.Allocs[i]
		}
	}
	return nil
}

// MapCategory selects which shadow bits an access map shows.
type MapCategory uint8

// Access map categories, mirroring the panels of Figs. 5, 7, 8, and 10.
const (
	// CPUWrites maps words written by the CPU.
	CPUWrites MapCategory = iota
	// GPUWrites maps words written by the GPU.
	GPUWrites
	// CPUReads maps words read by the CPU (any origin).
	CPUReads
	// GPUReads maps words read by the GPU (any origin).
	GPUReads
	// GPUReadsCPUOrigin maps GPU reads of CPU-written values (C>G) — the
	// overlap panels 5e/5f and the "GPU reads CPU" panels of Fig. 10.
	GPUReadsCPUOrigin
	// GPUReadsGPUOrigin maps GPU reads of GPU-written values (G>G), as in
	// Fig. 8b.
	GPUReadsGPUOrigin
	// AnyAccess maps any touched word.
	AnyAccess
)

func (c MapCategory) String() string {
	switch c {
	case CPUWrites:
		return "CPU writes"
	case GPUWrites:
		return "GPU writes"
	case CPUReads:
		return "CPU reads"
	case GPUReads:
		return "GPU reads"
	case GPUReadsCPUOrigin:
		return "GPU reads CPU"
	case GPUReadsGPUOrigin:
		return "GPU reads GPU"
	case AnyAccess:
		return "any access"
	default:
		return fmt.Sprintf("MapCategory(%d)", uint8(c))
	}
}

func (c MapCategory) mask() byte {
	switch c {
	case CPUWrites:
		return shadow.CPUWrote
	case GPUWrites:
		return shadow.GPUWrote
	case CPUReads:
		return shadow.ReadCC | shadow.ReadGC
	case GPUReads:
		return shadow.ReadCG | shadow.ReadGG
	case GPUReadsCPUOrigin:
		return shadow.ReadCG
	case GPUReadsGPUOrigin:
		return shadow.ReadGG
	default:
		return ^shadow.LastWriterGPU
	}
}

// AccessMap renders the entry's shadow state for one category as an ASCII
// bitmap with the given line width: '#' for a word with the category bit
// set, '.' otherwise. It is the textual equivalent of the paper's
// graphical access maps.
func AccessMap(e *shadow.Entry, c MapCategory, width int) string {
	if width <= 0 {
		width = 64
	}
	mask := c.mask()
	var b strings.Builder
	fmt.Fprintf(&b, "%s of %s (%d words):\n", c, e.Label, e.Words())
	for i, sb := range e.Shadow {
		if sb&mask != 0 {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
		if (i+1)%width == 0 {
			b.WriteByte('\n')
		}
	}
	if len(e.Shadow)%width != 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

// MapRow renders one category as a single-line bitmap downsampled to width
// buckets ('#' if any word in the bucket is set); handy for large
// allocations.
func MapRow(e *shadow.Entry, c MapCategory, width int) string {
	if width <= 0 {
		width = 64
	}
	mask := c.mask()
	n := len(e.Shadow)
	if n == 0 {
		return ""
	}
	if n < width {
		width = n
	}
	row := make([]byte, width)
	for i := range row {
		row[i] = '.'
	}
	for i, sb := range e.Shadow {
		if sb&mask != 0 {
			row[i*width/n] = '#'
		}
	}
	return string(row)
}

// MapCSV writes the per-word shadow state of an entry as comma-separated
// rows — the paper's "raw comma-separated files for further processing
// (e.g., to produce a graphical output)" (§III-D). Each row is
// word,cpuWrote,gpuWrote,readCC,readCG,readGC,readGG.
func MapCSV(w io.Writer, e *shadow.Entry) {
	fmt.Fprintln(w, "word,cpuWrote,gpuWrote,readCC,readCG,readGC,readGG")
	for i, b := range e.Shadow {
		bit := func(mask byte) int {
			if b&mask != 0 {
				return 1
			}
			return 0
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d\n", i,
			bit(shadow.CPUWrote), bit(shadow.GPUWrote),
			bit(shadow.ReadCC), bit(shadow.ReadCG), bit(shadow.ReadGC), bit(shadow.ReadGG))
	}
}
