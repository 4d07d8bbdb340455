// Package detect implements the runtime analyses that recognize the three
// memory access anti-patterns of paper §III-A in recorded shadow memory:
//
//   - alternating CPU/GPU accesses to the same managed memory,
//   - low access density within an allocated block,
//   - unnecessary explicit data transfers (in either direction).
//
// As a byproduct of the transfer analysis it also reports allocations that
// were never used at all (the Backprop finding of Table II).
package detect

import (
	"fmt"

	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// Kind classifies a finding.
type Kind uint8

// Finding kinds.
const (
	// AlternatingAccess: both CPU and GPU touched the same managed words,
	// at least one of them writing.
	AlternatingAccess Kind = iota
	// LowAccessDensity: the fraction of touched words in an accessed block
	// is at or below the configured threshold.
	LowAccessDensity
	// UnnecessaryTransferIn: a contiguous block was copied host-to-device
	// but the GPU never read the transferred values (either untouched or
	// overwritten before any read).
	UnnecessaryTransferIn
	// UnnecessaryTransferOut: a contiguous block was copied device-to-host
	// although the GPU never modified it.
	UnnecessaryTransferOut
	// UnusedAllocation: an allocation with no recorded accesses at all.
	UnusedAllocation
)

func (k Kind) String() string {
	switch k {
	case AlternatingAccess:
		return "alternating-cpu-gpu-access"
	case LowAccessDensity:
		return "low-access-density"
	case UnnecessaryTransferIn:
		return "unnecessary-transfer-in"
	case UnnecessaryTransferOut:
		return "unnecessary-transfer-out"
	case UnusedAllocation:
		return "unused-allocation"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindByName parses a finding-kind name as printed by Kind.String (e.g.
// "alternating-cpu-gpu-access") — the format the -fail-on flag accepts.
// Kinds returns every finding kind, in declaration order — the domain of
// KindByName and of -fail-on gates.
func Kinds() []Kind {
	var out []Kind
	for k := AlternatingAccess; k <= UnusedAllocation; k++ {
		out = append(out, k)
	}
	return out
}

func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("detect: unknown finding kind %q (want one of %s, %s, %s, %s, %s)",
		name, AlternatingAccess, LowAccessDensity, UnnecessaryTransferIn, UnnecessaryTransferOut, UnusedAllocation)
}

// Remedy returns the paper's suggested remedies for the anti-pattern
// (§III-A "Possible remedies").
func (k Kind) Remedy() string {
	switch k {
	case AlternatingAccess:
		return "provide memory access hints (cudaMemAdvise) matching the access characteristics, or split the object into a CPU part and a GPU part"
	case LowAccessDensity:
		return "partition the data transfer to overlap computation and communication, optimize the data layout to transfer less, or replace cudaMalloc with cudaMallocManaged"
	case UnnecessaryTransferIn:
		return "eliminate the transfer of memory the GPU never reads"
	case UnnecessaryTransferOut:
		return "eliminate the transfer-out of memory the GPU never modified"
	case UnusedAllocation:
		return "remove the unused allocation"
	default:
		return ""
	}
}

// Block is a contiguous word range within an allocation.
type Block struct {
	// FirstWord and Words delimit the range in 32-bit word units relative
	// to the allocation base.
	FirstWord, Words int
}

// Bytes returns the block length in bytes.
func (b Block) Bytes() int64 { return int64(b.Words) * shadow.WordSize }

// Finding is one detected anti-pattern instance.
type Finding struct {
	// Kind classifies the anti-pattern.
	Kind Kind
	// Alloc is the allocation label; AllocID links to the allocation.
	Alloc   string
	AllocID int
	// Count is the number of affected words (alternating elements, touched
	// words, or transferred-but-unused words).
	Count int
	// DensityPct is the access density in percent (LowAccessDensity only).
	DensityPct int
	// Blocks lists the contiguous regions involved (transfer findings).
	Blocks []Block
	// Detail is a human-readable explanation.
	Detail string
	// Kernels names the kernel span(s) whose accesses fall in the
	// diagnostic interval and touched the allocation — filled in by
	// diag.Attribute from the timeline, empty when no attribution ran.
	Kernels []string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Kind, f.Alloc, f.Detail)
}

// Options configures the detectors.
type Options struct {
	// DensityThresholdPct flags blocks whose access density is at or below
	// this percentage (paper example: 50).
	DensityThresholdPct int
	// MinBlockWords is the minimum contiguous run length (in 32-bit words)
	// reported by the transfer detectors ("the minimum block size of these
	// contiguous memory regions is parametrizable", §III-C).
	MinBlockWords int
}

// DefaultOptions returns the thresholds used throughout the paper's
// examples: 50% density, 32-word (128-byte) minimum transfer block.
func DefaultOptions() Options {
	return Options{DensityThresholdPct: 50, MinBlockWords: 32}
}

// Alternating counts the managed-memory words of e accessed by both
// devices with at least one write (§III-C "Alternating CPU/GPU accesses").
func Alternating(e *shadow.Entry) int { return AlternatingOf(e, e.Census()) }

// AlternatingOf is Alternating over a census already taken of e.
func AlternatingOf(e *shadow.Entry, c shadow.Census) int {
	if e.Kind != memsim.Managed {
		return 0
	}
	return c.Alternating
}

// Density returns the touched word count and the access density of e in
// percent (0..100). A word counts as touched when any access hit it this
// interval; the surviving last-writer bit alone does not count.
func Density(e *shadow.Entry) (touchedWords, pct int) { return DensityOf(e, e.Census()) }

// DensityOf is Density over a census already taken of e.
func DensityOf(e *shadow.Entry, c shadow.Census) (touchedWords, pct int) {
	if len(e.Shadow) == 0 {
		return 0, 0
	}
	return c.Touched, c.Touched * 100 / len(e.Shadow)
}

// runs collects maximal contiguous word ranges of e satisfying pred, of at
// least minWords length.
func runs(e *shadow.Entry, minWords int, pred func(byte) bool) []Block {
	var out []Block
	start := -1
	flush := func(end int) {
		if start >= 0 && end-start >= minWords {
			out = append(out, Block{FirstWord: start, Words: end - start})
		}
		start = -1
	}
	for i, b := range e.Shadow {
		if pred(b) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(e.Shadow))
	return out
}

// Scan runs all detectors over the SMT entries and returns the findings in
// entry order.
func Scan(entries []*shadow.Entry, opt Options) []Finding {
	var out []Finding
	for _, e := range entries {
		out = append(out, ScanCensus(e, e.Census(), opt)...)
	}
	return out
}

// ScanCensus runs all detectors over a single allocation, given a census
// already taken of it, so a diagnostic that also summarizes e counts its
// shadow bytes once.
func ScanCensus(e *shadow.Entry, c shadow.Census, opt Options) []Finding {
	var out []Finding

	touchedWords, pct := DensityOf(e, c)

	// Unused allocation: nothing touched it since it was created. The
	// cumulative flag (not the per-interval shadow bits) decides, so
	// per-iteration diagnostics do not flag quiet intervals.
	if !e.EverTouched {
		out = append(out, Finding{
			Kind:    UnusedAllocation,
			Alloc:   e.Label,
			AllocID: e.AllocID,
			Detail:  fmt.Sprintf("allocated via %s but never accessed", e.AllocFn),
		})
		return out
	}

	// Alternating accesses (managed memory only, §III-A).
	if alt := AlternatingOf(e, c); alt > 0 {
		out = append(out, Finding{
			Kind:    AlternatingAccess,
			Alloc:   e.Label,
			AllocID: e.AllocID,
			Count:   alt,
			Detail:  fmt.Sprintf("%d elements accessed by both CPU and GPU with at least one write", alt),
		})
	}

	// Low access density: at least one access, density at or below the
	// threshold (§III-A).
	if touchedWords > 0 && pct <= opt.DensityThresholdPct {
		out = append(out, Finding{
			Kind:       LowAccessDensity,
			Alloc:      e.Label,
			AllocID:    e.AllocID,
			Count:      touchedWords,
			DensityPct: pct,
			Detail:     fmt.Sprintf("only %d of %d words accessed (%d%% <= %d%% threshold)", touchedWords, e.Words(), pct, opt.DensityThresholdPct),
		})
	}

	// Unnecessary transfers apply to explicitly transferred memory
	// (cudaMalloc + cudaMemcpy, §III-A).
	if e.Kind == memsim.DeviceOnly && e.TransferredIn > 0 {
		blocks := runs(e, opt.MinBlockWords, func(b byte) bool {
			return b&shadow.CPUWrote != 0 && b&shadow.ReadCG == 0
		})
		if len(blocks) > 0 {
			words := 0
			allOverwritten, anyGPU := true, false
			for _, blk := range blocks {
				words += blk.Words
				for i := blk.FirstWord; i < blk.FirstWord+blk.Words; i++ {
					if e.Shadow[i]&shadow.GPUWrote != 0 {
						anyGPU = true
					} else {
						allOverwritten = false
					}
				}
			}
			detail := fmt.Sprintf("%d words in %d block(s) transferred to GPU but never read by it", words, len(blocks))
			if anyGPU && allOverwritten {
				detail += " (GPU overwrites all transferred values before use; the initial transfer can be eliminated)"
			}
			out = append(out, Finding{
				Kind:    UnnecessaryTransferIn,
				Alloc:   e.Label,
				AllocID: e.AllocID,
				Count:   words,
				Blocks:  blocks,
				Detail:  detail,
			})
		}
	}
	if e.Kind == memsim.DeviceOnly && e.TransferredOut > 0 {
		blocks := runs(e, opt.MinBlockWords, func(b byte) bool {
			// Transferred out (a CPU read of a CPU-origin value) without a
			// GPU write: the GPU never modified what was copied back.
			return b&shadow.ReadCC != 0 && b&shadow.GPUWrote == 0
		})
		if len(blocks) > 0 {
			words := 0
			for _, blk := range blocks {
				words += blk.Words
			}
			out = append(out, Finding{
				Kind:    UnnecessaryTransferOut,
				Alloc:   e.Label,
				AllocID: e.AllocID,
				Count:   words,
				Blocks:  blocks,
				Detail:  fmt.Sprintf("%d words in %d block(s) transferred back to CPU although the GPU never modified them", words, len(blocks)),
			})
		}
	}
	return out
}
