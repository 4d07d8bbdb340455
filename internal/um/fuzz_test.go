package um

import (
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
)

// FuzzDriverInvariants drives the page state machine with an arbitrary
// access/advise sequence and checks global invariants after every step:
// GPU residency never exceeds capacity by more than one in-flight page,
// residency accounting never goes negative, and stats only grow.
func FuzzDriverInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xFF, 0x00, 0x81, 0x42, 0x10})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		plat := machine.IntelPascal().Clone()
		plat.PageSize = 4096
		plat.GPUMemory = 4 * 4096
		sp := memsim.NewSpace(plat.PageSize)
		d := NewDriver(plat, sp)
		a, err := sp.Alloc(8*4096, memsim.Managed, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		d.Register(a)

		var prev Stats
		for _, op := range script {
			dev := machine.Device(op >> 7 & 1)
			pageIdx := int64(op>>4) & 7
			kind := memsim.AccessKind(op >> 2 & 3 % 3)
			switch op & 3 {
			case 0, 1:
				access(d, dev, a, a.Base+memsim.Addr(pageIdx*4096+int64(op&3)*8), 8, kind)
			case 2:
				adv := Advice(op >> 2 % 6)
				_ = d.Advise(a, adv, dev)
			case 3:
				adv := Advice(op >> 2 % 6)
				_ = d.AdviseRange(a, pageIdx*4096, 4096, adv, dev)
			}

			if used := d.GPUMemoryUsed(); used < 0 {
				t.Fatalf("negative GPU residency %d after op %#x", used, op)
			} else if used > plat.GPUMemory {
				t.Fatalf("GPU residency %d exceeds capacity %d after op %#x", used, plat.GPUMemory, op)
			}
			s := d.Stats()
			if s.FaultsCPU < prev.FaultsCPU || s.FaultsGPU < prev.FaultsGPU ||
				s.Migrations() < prev.Migrations() || s.Evictions < prev.Evictions {
				t.Fatalf("stats went backwards after op %#x: %+v -> %+v", op, prev, s)
			}
			prev = s
		}
	})
}
