package record

import (
	_ "unsafe" // for go:linkname
)

// procHint returns the current P's id as a slot-placement hint. The pin
// is dropped immediately — holding it across anything that can block
// would stall the scheduler — so the returned id can be stale by the time
// it is used. That is fine: the id only picks which buffer slot to try
// first, and correctness never depends on it (slots are CAS-locked and
// drain order is restored by order stamps).
//
// procPin/procUnpin are the runtime's own mechanism behind sync.Pool's
// per-P caches; linking them directly is the same trick, minus Pool's
// victim-cache machinery this engine does not want. The empty .s file in
// this package licenses the bodyless declarations.
func procHint() int {
	p := procPin()
	procUnpin()
	return p
}

//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()
