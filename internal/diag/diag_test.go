package diag_test

import (
	"encoding/json"
	"strings"
	"testing"

	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/trace"
	"xplacer/internal/um"
)

// sim builds a tracer with one managed allocation and the given accesses.
func sim(t *testing.T, words int) (*trace.Tracer, *memsim.Alloc) {
	t.Helper()
	sp := memsim.NewSpace(4096)
	a, err := sp.Alloc(int64(words*4), memsim.Managed, "dom")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	tr.TraceAlloc(a)
	return tr, a
}

func TestSummarizeCounts(t *testing.T) {
	tr, a := sim(t, 100)
	// CPU writes 27 words; GPU reads 10 of them; CPU reads 5 of its own.
	for i := 0; i < 27; i++ {
		tr.TraceAccess(machine.CPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Write)
	}
	for i := 0; i < 10; i++ {
		tr.TraceAccess(machine.GPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Read)
	}
	for i := 0; i < 5; i++ {
		tr.TraceAccess(machine.CPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Read)
	}
	// Repeated writes to the same address count once (paper Fig. 4).
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)

	e := tr.Table().FindByID(a.ID)
	if e == nil {
		t.Fatal("entry not found")
	}
	s := diag.Summarize(e)
	if s.WriteC != 27 || s.WriteG != 0 {
		t.Errorf("writes C=%d G=%d, want 27, 0", s.WriteC, s.WriteG)
	}
	if s.ReadCG != 10 {
		t.Errorf("C>G = %d, want 10", s.ReadCG)
	}
	if s.ReadCC != 5 {
		t.Errorf("C>C = %d, want 5", s.ReadCC)
	}
	if s.ReadGC != 0 || s.ReadGG != 0 {
		t.Errorf("G>C=%d G>G=%d, want 0,0", s.ReadGC, s.ReadGG)
	}
	if s.DensityPct != 27 {
		t.Errorf("density = %d%%, want 27%%", s.DensityPct)
	}
	if s.Alternating != 10 {
		t.Errorf("alternating = %d, want 10", s.Alternating)
	}
}

func TestReportTextFig4Shape(t *testing.T) {
	tr, a := sim(t, 100)
	for i := 0; i < 27; i++ {
		tr.TraceAccess(machine.CPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Write)
	}
	for i := 0; i < 18; i++ {
		tr.TraceAccess(machine.GPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Read)
	}
	var b strings.Builder
	r := diag.Analyze(tr.Table().Entries(), "after timestep 2", detect.DefaultOptions())
	r.Text(&b)
	tr.Table().Reset()
	out := b.String()
	for _, want := range []string{
		"*** checking 1 named allocations",
		"dom",
		"write counts",
		"write>read counts",
		"C>C", "C>G", "G>C", "G>G",
		"access density (in %): 27",
		"18 elements with alternating accesses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if len(r.Findings) == 0 {
		t.Error("expected findings (low density + alternating)")
	}
	// Table.Reset clears the interval state.
	s2 := diag.Summarize(tr.Table().FindByID(a.ID))
	if s2.WriteC != 0 || s2.Alternating != 0 {
		t.Error("Reset did not clear the shadow state")
	}
}

func TestReportCSV(t *testing.T) {
	tr, a := sim(t, 10)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	r := diag.Analyze(tr.Table().Entries(), "", detect.DefaultOptions())
	var b strings.Builder
	r.CSV(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "alloc,kind,words,writeC") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "dom,managed,10,1,0,") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestAccessMap(t *testing.T) {
	tr, a := sim(t, 16)
	for i := 0; i < 4; i++ {
		tr.TraceAccess(machine.CPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Write)
	}
	e := tr.Table().FindByID(a.ID)
	m := diag.AccessMap(e, diag.CPUWrites, 8)
	if !strings.Contains(m, "####....") {
		t.Errorf("map:\n%s", m)
	}
	if !strings.Contains(m, "CPU writes of dom") {
		t.Errorf("map header missing: %s", m)
	}
	// GPU writes map must be empty.
	g := diag.AccessMap(e, diag.GPUWrites, 8)
	if strings.Contains(g, "#") {
		t.Errorf("GPU map not empty:\n%s", g)
	}
}

func TestMapRowDownsamples(t *testing.T) {
	tr, a := sim(t, 1000)
	// Touch the second half only.
	for i := 500; i < 1000; i++ {
		tr.TraceAccess(machine.GPU, a, a.Base+memsim.Addr(i*4), 4, memsim.Write)
	}
	row := diag.MapRow(tr.Table().FindByID(a.ID), diag.GPUWrites, 10)
	if row != ".....#####" {
		t.Errorf("row = %q", row)
	}
}

func TestMapRowSmallerThanWidth(t *testing.T) {
	tr, a := sim(t, 4)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	row := diag.MapRow(tr.Table().FindByID(a.ID), diag.CPUWrites, 64)
	if row != "#..." {
		t.Errorf("row = %q", row)
	}
}

func TestMapCategories(t *testing.T) {
	tr, a := sim(t, 4)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.Read)    // C>G
	tr.TraceAccess(machine.GPU, a, a.Base+4, 4, memsim.Write) // GPU write
	tr.TraceAccess(machine.GPU, a, a.Base+4, 4, memsim.Read)  // G>G
	tr.TraceAccess(machine.CPU, a, a.Base+4, 4, memsim.Read)  // G>C
	e := tr.Table().FindByID(a.ID)
	cases := []struct {
		cat  diag.MapCategory
		want string
	}{
		{diag.CPUWrites, "#..."},
		{diag.GPUWrites, ".#.."},
		{diag.GPUReadsCPUOrigin, "#..."},
		{diag.GPUReadsGPUOrigin, ".#.."},
		{diag.CPUReads, ".#.."},
		{diag.GPUReads, "##.."},
		{diag.AnyAccess, "##.."},
	}
	for _, c := range cases {
		if got := diag.MapRow(e, c.cat, 4); got != c.want {
			t.Errorf("%v row = %q, want %q", c.cat, got, c.want)
		}
	}
}

func TestReportFind(t *testing.T) {
	tr, a := sim(t, 10)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	r := diag.Analyze(tr.Table().Entries(), "", detect.DefaultOptions())
	if r.Find("dom") == nil {
		t.Error("Find(dom) = nil")
	}
	if r.Find("nope") != nil {
		t.Error("Find(nope) != nil")
	}
}

func TestFreedAllocationAppearsOnce(t *testing.T) {
	sp := memsim.NewSpace(4096)
	a, _ := sp.Alloc(64, memsim.Managed, "tmp")
	tr := trace.New()
	tr.TraceAlloc(a)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.Write)
	tr.TraceFree(a)
	var b strings.Builder
	r := diag.Analyze(tr.Table().Entries(), "", detect.DefaultOptions())
	r.Text(&b)
	tr.Table().Reset()
	if !strings.Contains(b.String(), "[freed]") {
		t.Errorf("freed marker missing:\n%s", b.String())
	}
	// After the diagnostic, the freed entry is gone.
	r = diag.Analyze(tr.Table().Entries(), "", detect.DefaultOptions())
	if len(r.Allocs) != 0 {
		t.Error("freed entry survived the diagnostic")
	}
}

func TestTransferLineInText(t *testing.T) {
	sp := memsim.NewSpace(4096)
	a, _ := sp.Alloc(256, memsim.DeviceOnly, "gpuWall")
	tr := trace.New()
	tr.TraceAlloc(a)
	tr.TraceTransfer(a, um.HostToDevice, 0, 256)
	var b strings.Builder
	r := diag.Analyze(tr.Table().Entries(), "", detect.DefaultOptions())
	r.Text(&b)
	tr.Table().Reset()
	if !strings.Contains(b.String(), "explicit transfers: 256 bytes in, 0 bytes out") {
		t.Errorf("transfer line missing:\n%s", b.String())
	}
}

func TestMapCSV(t *testing.T) {
	tr, a := sim(t, 4)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.Read)
	var b strings.Builder
	diag.MapCSV(&b, tr.Table().FindByID(a.ID))
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want header + 4", len(lines))
	}
	if lines[0] != "word,cpuWrote,gpuWrote,readCC,readCG,readGC,readGG" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0,1,0,0,1,0,0" {
		t.Errorf("word 0 = %q", lines[1])
	}
	if lines[2] != "1,0,0,0,0,0,0" {
		t.Errorf("word 1 = %q", lines[2])
	}
}

func TestReportJSON(t *testing.T) {
	tr, a := sim(t, 100)
	tr.TraceAccess(machine.CPU, a, a.Base, 4, memsim.Write)
	tr.TraceAccess(machine.GPU, a, a.Base, 4, memsim.Read)
	r := diag.Analyze(tr.Table().Entries(), "step 1", detect.DefaultOptions())
	var b strings.Builder
	if err := r.JSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Title  string `json:"title"`
		Allocs []struct {
			Label       string `json:"label"`
			WriteC      int    `json:"writeC"`
			Alternating int    `json:"alternating"`
		} `json:"allocations"`
		Findings []struct {
			Kind   string `json:"kind"`
			Remedy string `json:"remedy"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if decoded.Title != "step 1" || len(decoded.Allocs) != 1 {
		t.Fatalf("decoded = %+v", decoded)
	}
	if decoded.Allocs[0].Label != "dom" || decoded.Allocs[0].WriteC != 1 || decoded.Allocs[0].Alternating != 1 {
		t.Errorf("alloc = %+v", decoded.Allocs[0])
	}
	if len(decoded.Findings) == 0 || decoded.Findings[0].Remedy == "" {
		t.Errorf("findings = %+v", decoded.Findings)
	}
}
