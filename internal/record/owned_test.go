package record

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// ownedOp is one call of a lone-slot script: a scalar access (count 0),
// a RecordRange (count >= 1), a flush point, or a shared-slot scalar.
type ownedOp struct {
	dev    machine.Device
	kind   memsim.AccessKind
	addr   memsim.Addr
	count  int
	stride int64
	size   int64
	flush  bool
	// shared records the scalar through Engine.Record beside an
	// OwnedSlot; the lone-slot run records it and then flushes, the cut
	// the OwnedSlot's next drain makes before its own batch.
	shared bool
}

func scalarOp(dev machine.Device, addr memsim.Addr, kind memsim.AccessKind) ownedOp {
	return ownedOp{dev: dev, kind: kind, addr: addr, size: 8}
}

func rangeOp(base memsim.Addr, count int, stride int64, kind memsim.AccessKind) ownedOp {
	return ownedOp{dev: machine.GPU, kind: kind, addr: base, count: count, stride: stride, size: 8}
}

// ownedScripts are the call scripts TestOwnedSlotMatchesLoneSlot drives
// both ways. Addresses are synthetic: the capturing sink resolves none.
func ownedScripts() map[string][]ownedOp {
	const x, y, z = memsim.Addr(0x100000), memsim.Addr(0x200000), memsim.Addr(0x300000)
	var interleaved, contiguous, offset, mixed []ownedOp
	for i := 0; i < 1500; i++ {
		off := memsim.Addr(8 * i)
		interleaved = append(interleaved,
			scalarOp(machine.GPU, y+off, memsim.Read),
			scalarOp(machine.GPU, z+off, memsim.Read),
			scalarOp(machine.GPU, x+off, memsim.Write))
	}
	for i := 0; i < 3*slotCap+17; i++ {
		contiguous = append(contiguous, scalarOp(machine.CPU, x+memsim.Addr(8*i), memsim.Write))
	}
	for i := 0; i < 300; i++ {
		offset = append(offset, scalarOp(machine.GPU, y+memsim.Addr(64*i), memsim.Read))
	}
	for i := 0; i < 2*slotCap; i++ {
		offset = append(offset, scalarOp(machine.GPU, x+memsim.Addr(8*i), memsim.ReadWrite))
	}
	for i := 0; i < 400; i++ {
		base := x + memsim.Addr(256*i)
		mixed = append(mixed,
			rangeOp(base, 4, 8, memsim.Read),            // one line
			scalarOp(machine.GPU, base+32, memsim.Read), // continues it
			rangeOp(base+64, 24, 8, memsim.Write),       // three lines
			scalarOp(machine.GPU, base+256, memsim.Write),
			scalarOp(machine.CPU, y+memsim.Addr(8*i), memsim.Read))
		if i%97 == 0 {
			mixed = append(mixed, ownedOp{flush: true})
		}
	}
	return map[string][]ownedOp{
		"interleaved scalars":                      interleaved,
		"contiguous across fills":                  contiguous,
		"contiguous from mid-slot":                 offset,
		"single- and multi-line runs with flushes": mixed,
		"count 1": {
			rangeOp(x, 1, 64, memsim.Write),
			scalarOp(machine.GPU, x+8, memsim.Write),
			rangeOp(x+16, 1, -64, memsim.Read),
			scalarOp(machine.GPU, x+24, memsim.Read),
		},
		"negative stride": {
			rangeOp(x+24, 4, -8, memsim.Read), // one line, flipped to x
			scalarOp(machine.GPU, x+32, memsim.Read),
			rangeOp(y+800, 40, -16, memsim.Write), // many lines
			scalarOp(machine.GPU, y+808, memsim.Write),
		},
		"stride above maxRun": {
			scalarOp(machine.GPU, z, memsim.Read),
			rangeOp(z+8, 3, maxRun+1, memsim.Read),
			scalarOp(machine.GPU, z+8+2*(maxRun+1)+8, memsim.Read),
		},
		"count above maxRun": {
			rangeOp(x, maxRun+5, 8, memsim.Write),
			scalarOp(machine.GPU, x+8*(maxRun+5), memsim.Write),
		},
		"shared slot before": {
			{dev: machine.CPU, kind: memsim.Write, addr: x, size: 8, shared: true},
			scalarOp(machine.GPU, x, memsim.Read),
			scalarOp(machine.GPU, x+8, memsim.Read),
		},
	}
}

// TestOwnedSlotMatchesLoneSlot drives each script through a lone engine
// slot (Engine.Record and RecordRange on one P) and through an
// OwnedSlot, each into a capturing sink, and requires the same batch
// sequence: the same records, cut at the same calls. The lone-slot run
// pins GOMAXPROCS to 1 so the recording goroutine stays on one slot.
func TestOwnedSlotMatchesLoneSlot(t *testing.T) {
	for name, script := range ownedScripts() {
		t.Run(name, func(t *testing.T) {
			want := loneSlotBatches(script)
			got := ownedSlotBatches(script)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("owned slot drained %s\nlone slot drained %s", batchShapes(got), batchShapes(want))
			}
		})
	}
}

func loneSlotBatches(script []ownedOp) [][]shadow.Access {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sink := &countingSink{}
	eng := NewEngine(sink)
	for _, op := range script {
		switch {
		case op.flush:
			eng.Flush()
		case op.shared:
			eng.Record(op.dev, op.addr, op.size, op.kind)
			eng.Flush()
		case op.count == 0:
			eng.Record(op.dev, op.addr, op.size, op.kind)
		default:
			eng.RecordRange(op.dev, op.addr, op.count, op.stride, op.size, op.kind)
		}
	}
	eng.Flush()
	return sink.batches
}

func ownedSlotBatches(script []ownedOp) [][]shadow.Access {
	sink := &countingSink{}
	eng := NewEngine(sink)
	s := eng.NewOwnedSlot()
	for _, op := range script {
		switch {
		case op.flush:
			s.Flush()
			eng.Flush()
		case op.shared:
			eng.Record(op.dev, op.addr, op.size, op.kind)
		case op.count == 0:
			s.Record(op.dev, op.addr, op.size, op.kind)
		default:
			s.RecordRange(op.dev, op.addr, op.count, op.stride, op.size, op.kind)
		}
	}
	s.Flush()
	eng.Flush()
	return sink.batches
}

// batchShapes prints each batch's length and first and last records.
func batchShapes(batches [][]shadow.Access) string {
	out := fmt.Sprintf("%d batches:", len(batches))
	for _, b := range batches {
		out += fmt.Sprintf("\n  %d records %+v .. %+v", len(b), b[0], b[len(b)-1])
	}
	return out
}

// TestOwnedSlotDisabled checks that a disabled engine's OwnedSlot counts
// no call: the next drain still falls slotCap calls after enabling.
func TestOwnedSlotDisabled(t *testing.T) {
	sink := &countingSink{}
	eng := NewEngine(sink)
	s := eng.NewOwnedSlot()
	eng.SetEnabled(false)
	s.Record(machine.CPU, 0x1000, 4, memsim.Write)
	s.RecordRange(machine.CPU, 0x1000, 64, 4, 4, memsim.Write)
	eng.SetEnabled(true)
	for i := 0; i < slotCap-1; i++ {
		s.Record(machine.CPU, memsim.Addr(0x2000+64*i), 4, memsim.Write)
	}
	if len(sink.batches) != 0 {
		t.Fatalf("drained %d batches before the fill", len(sink.batches))
	}
	s.Record(machine.CPU, 0x1000, 4, memsim.Write)
	if len(sink.batches) != 1 || len(sink.batches[0]) != slotCap {
		t.Fatalf("fill drained %d batches, want one of %d records", len(sink.batches), slotCap)
	}
	if c := eng.Counts(); c != (Counts{Writes: slotCap}) {
		t.Errorf("counts = %+v, want %d writes", c, slotCap)
	}
}
