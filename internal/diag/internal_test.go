package diag

import (
	"testing"

	"xplacer/internal/shadow"
)

func TestCSVEscaping(t *testing.T) {
	if got := csvEscape(`a,b"c`); got != `"a,b""c"` {
		t.Errorf("csvEscape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Errorf("csvEscape(plain) = %q", got)
	}
}

func TestShadowBitsExposedConsistently(t *testing.T) {
	// The diag masks must match the shadow bit definitions.
	if CPUWrites.mask() != shadow.CPUWrote || GPUWrites.mask() != shadow.GPUWrote {
		t.Error("write masks diverge from shadow bits")
	}
	if GPUReads.mask() != shadow.ReadCG|shadow.ReadGG {
		t.Error("GPU read mask wrong")
	}
}
