package shadow

import (
	"encoding/binary"
	"math/bits"
)

// Census is one pass's tally of an entry's shadow bytes: every per-word
// count a diagnostic reads. Each field counts words, not accesses.
type Census struct {
	// CPUWrote..ReadGG count the words with each flag set.
	CPUWrote, GPUWrote, ReadCC, ReadCG, ReadGC, ReadGG int
	// Touched counts the words accessed this interval: any bit set but
	// the surviving last-writer bit.
	Touched int
	// Alternating counts the words touched by both devices, at least one
	// of them writing. The alternating-access detector applies it to
	// managed memory only (detect.Alternating).
	Alternating int
}

// More broadcast masks for the census lane math (see bulk.go).
const (
	swarGPUWrote = swarOnes * uint64(GPUWrote)
	swarLow7     = swarOnes * 0x7F
	swarHigh     = swarOnes * 0x80
	// swarCPUTouch, swarGPUTouch and swarAnyWrite select, per byte, the
	// bits that show a CPU access, a GPU access and a write.
	swarCPUTouch = swarOnes * uint64(CPUWrote|ReadCC|ReadGC)
	swarGPUTouch = swarOnes * uint64(GPUWrote|ReadCG|ReadGG)
	swarAnyWrite = swarOnes * uint64(CPUWrote|GPUWrote)
)

// nonzero returns x with each nonzero byte's high bit set and every other
// bit clear. Adding 0x7F to a byte's low seven bits carries into its high
// bit exactly when one of them is set, and never out of the byte.
func nonzero(x uint64) uint64 { return ((x&swarLow7 + swarLow7) | x) & swarHigh }

// Census counts the entry's shadow flags in one pass, eight bytes per
// step: one flag's count over a lane is the popcount of the lane masked
// with the flag's broadcast, and a per-byte predicate's is the popcount of
// nonzero over the bytes it selects. The tail runs as one more lane,
// zero-padded: a zero byte sets no flag and is neither touched nor
// alternating, so the padding counts nothing.
func (e *Entry) Census() Census {
	var c Census
	sh := e.Shadow
	for i := 0; i < len(sh); i += 8 {
		var x uint64
		if i+8 <= len(sh) {
			x = binary.LittleEndian.Uint64(sh[i:])
		} else {
			var tail [8]byte
			copy(tail[:], sh[i:])
			x = binary.LittleEndian.Uint64(tail[:])
		}
		if x == 0 {
			continue
		}
		c.CPUWrote += bits.OnesCount64(x & swarCPUW)
		c.GPUWrote += bits.OnesCount64(x & swarGPUWrote)
		c.ReadCC += bits.OnesCount64(x & swarRCC)
		c.ReadCG += bits.OnesCount64(x & swarRCG)
		c.ReadGC += bits.OnesCount64(x & swarRGC)
		c.ReadGG += bits.OnesCount64(x & swarRGG)
		c.Touched += bits.OnesCount64(nonzero(x &^ swarLastG))
		c.Alternating += bits.OnesCount64(nonzero(x&swarCPUTouch) & nonzero(x&swarGPUTouch) & nonzero(x&swarAnyWrite))
	}
	return c
}

// clearInterval clears every bit of sh but the last-writer bit, eight
// bytes per step (Table.Reset).
func clearInterval(sh []byte) {
	i := 0
	for ; i+8 <= len(sh); i += 8 {
		binary.LittleEndian.PutUint64(sh[i:], binary.LittleEndian.Uint64(sh[i:])&swarLastG)
	}
	for ; i < len(sh); i++ {
		sh[i] &= LastWriterGPU
	}
}
