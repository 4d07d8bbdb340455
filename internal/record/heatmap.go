package record

import (
	"sort"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// HeatmapSink accumulates per-word access counts split by device — the
// access-frequency observability layer the shadow bits alone cannot
// provide (they saturate after the first access; a heat map shows *how
// often* each word is touched, CUTHERMO-style). It resolves accesses
// against the same shadow table the TableSink maintains, so the heat map
// rows line up word-for-word with the access maps of internal/diag.
//
// Counts accumulate into the current interval epoch; Rotate closes an
// epoch (folding its per-device totals into each allocation's History)
// and starts the next, mirroring the reset-at-diagnostic interval
// semantics of the shadow memory. Apply runs under the engine lock;
// Heats and Rotate must be called with recording quiescent or inside
// Engine.Locked.
// Epochs close either explicitly (Rotate, typically at diagnostic
// boundaries) or on the simulated clock (RotateOnClock): with a rotation
// interval configured, Apply checks the clock and closes an epoch whenever
// the simulated time crosses an interval boundary, yielding
// simulated-time-bucketed heat history that lines up with the exported
// timeline.
type HeatmapSink struct {
	table *shadow.Table
	last  *shadow.Entry // lookup hint carried between batches (Table.Each)
	heats map[*shadow.Entry]*Heat
	order []*Heat
	epoch int

	// Clock-driven rotation state (RotateOnClock).
	every     machine.Duration
	now       func() machine.Duration
	nextTick  machine.Duration
	epochFrom machine.Duration
}

// Heat is one allocation's access-frequency state: per-word counts for
// the current epoch plus closed-epoch totals.
type Heat struct {
	// Base anchors word 0; Words is the allocation's shadow word count.
	Base  memsim.Addr
	Words int
	// Counts holds the current epoch's per-word access counts, one slice
	// per device. An access spanning several words counts once per word.
	Counts [machine.NumDevices][]uint32
	// Totals are the current epoch's per-device word-access totals.
	Totals [machine.NumDevices]uint64
	// History holds the totals of closed epochs, oldest first.
	History []EpochTotals

	entry *shadow.Entry
}

// EpochTotals is one closed epoch's per-device access total.
type EpochTotals struct {
	Epoch int
	// At is the simulated time the epoch started, when the sink rotates on
	// the clock (0 for manually rotated epochs without a clock).
	At    machine.Duration
	Total [machine.NumDevices]uint64
}

// Label returns the allocation's current user-facing label (labels can be
// attached after the first access, e.g. by diagnostic relabeling).
func (h *Heat) Label() string { return h.entry.Label }

// NewHeatmapSink observes accesses resolved against t.
func NewHeatmapSink(t *shadow.Table) *HeatmapSink {
	return &HeatmapSink{table: t, heats: map[*shadow.Entry]*Heat{}}
}

// RotateOnClock makes the sink close an epoch every time the simulated
// clock crosses an interval boundary. now is sampled at Apply time (once
// per drained batch, off the per-access path); it must be safe to call
// from wherever the engine drains — with the sequential simulated
// runtime, that is the simulation goroutine.
func (h *HeatmapSink) RotateOnClock(every machine.Duration, now func() machine.Duration) {
	if every <= 0 || now == nil {
		h.every, h.now = 0, nil
		return
	}
	h.every = every
	h.now = now
	h.epochFrom = now()
	h.nextTick = h.epochFrom + every
}

// Apply implements Sink. Every batch goes through the same maybeRotate
// check before any counting, so a range record draining after the
// simulated clock crossed a RotateOnClock boundary lands in the epoch
// containing its drain time and can never leak into the already-closed
// epoch. Elements that start in no live entry are skipped: the TableSink
// tallies those.
func (h *HeatmapSink) Apply(batch []shadow.Access, _ *Cursor) {
	h.maybeRotate()
	h.last, _ = h.table.Each(batch, h.last, h.countPiece)
}

// maybeRotate closes epochs the simulated clock has crossed since the
// last batch.
func (h *HeatmapSink) maybeRotate() {
	if h.now == nil {
		return
	}
	if t := h.now(); t >= h.nextTick {
		h.rotate(h.epochFrom)
		h.epochFrom = h.nextTick
		// Skip empty intervals so idle stretches do not mint epochs.
		for h.nextTick <= t {
			h.epochFrom = h.nextTick
			h.nextTick += h.every
		}
	}
}

// heatOf returns (creating on first touch) the heat state for an entry.
func (h *HeatmapSink) heatOf(e *shadow.Entry) *Heat {
	ht := h.heats[e]
	if ht == nil {
		ht = &Heat{Base: e.Base, Words: e.Words(), entry: e}
		for d := range ht.Counts {
			ht.Counts[d] = make([]uint32, ht.Words)
		}
		h.heats[e] = ht
		h.order = append(h.order, ht)
	}
	return ht
}

// countPiece counts one piece shadow.Table.Each resolved: n elements of
// a starting at addr, all in e. Per-word counts stay element-exact: an
// access spanning several words counts once per word, and a run of
// word-aligned, gapless, non-overlapping elements (stride == size,
// word-multiple) — where each covered word belongs to exactly one
// element — is counted as one span in a single pass; any other run
// element by element.
func (h *HeatmapSink) countPiece(e *shadow.Entry, a *shadow.Access, addr memsim.Addr, n int) {
	ht := h.heatOf(e)
	d := a.Dev
	if int(d) >= len(ht.Counts) {
		return
	}
	stride, size := int64(a.Stride), int64(a.Size)
	if stride == size && addr%shadow.WordSize == 0 && stride%shadow.WordSize == 0 {
		size, n = int64(n)*stride, 1
	}
	counts := ht.Counts[d]
	for k := 0; k < n; k++ {
		el := addr + memsim.Addr(int64(k)*stride)
		first := int(el-ht.Base) / shadow.WordSize
		last := int(el+memsim.Addr(size)-1-ht.Base) / shadow.WordSize
		if last >= ht.Words {
			last = ht.Words - 1
		}
		for w := first; w <= last; w++ {
			counts[w]++
		}
		ht.Totals[d] += uint64(last - first + 1)
	}
}

// Epoch returns the current (open) epoch index.
func (h *HeatmapSink) Epoch() int { return h.epoch }

// Rotate closes the current epoch: each allocation's per-device totals
// move into its History and the per-word counts restart at zero. Heats
// seen only in closed epochs survive (like freed-but-retained shadow
// entries, the history outlives the interval).
func (h *HeatmapSink) Rotate() {
	at := h.epochFrom
	h.rotate(at)
	if h.now != nil {
		h.epochFrom = h.now()
		h.nextTick = h.epochFrom + h.every
	}
}

func (h *HeatmapSink) rotate(at machine.Duration) {
	for _, ht := range h.order {
		if ht.Totals != ([machine.NumDevices]uint64{}) {
			ht.History = append(ht.History, EpochTotals{Epoch: h.epoch, At: at, Total: ht.Totals})
			ht.Totals = [machine.NumDevices]uint64{}
			for d := range ht.Counts {
				clear(ht.Counts[d])
			}
		}
	}
	h.epoch++
}

// Heats returns every observed allocation's heat state in base-address
// order. The returned slices alias live sink state.
func (h *HeatmapSink) Heats() []*Heat {
	out := append([]*Heat(nil), h.order...)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}
