package instr

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func instrument(t *testing.T, src string) string {
	t.Helper()
	out, err := File("input.go", []byte(src), Options{})
	if err != nil {
		t.Fatalf("File: %v\nsource:\n%s", err, src)
	}
	return string(out)
}

func TestDerefRead(t *testing.T) {
	out := instrument(t, `package p
func f(p *int) int { return *p }
`)
	if !strings.Contains(out, "return *xplrt.TraceR(p)") {
		t.Errorf("deref read not instrumented:\n%s", out)
	}
	if !strings.Contains(out, `xplrt "xplacer/xplrt"`) {
		t.Errorf("runtime import missing:\n%s", out)
	}
}

func TestDerefWrite(t *testing.T) {
	out := instrument(t, `package p
func f(p *int) { *p = 3 }
`)
	if !strings.Contains(out, "*xplrt.TraceW(p) = 3") {
		t.Errorf("deref write not instrumented:\n%s", out)
	}
}

func TestDerefReadModifyWrite(t *testing.T) {
	out := instrument(t, `package p
func f(p *int) { *p += 2; *p++ }
`)
	if strings.Count(out, "xplrt.TraceRW(p)") != 2 {
		t.Errorf("read-modify-writes not instrumented:\n%s", out)
	}
}

func TestSliceIndex(t *testing.T) {
	out := instrument(t, `package p
func f(s []float64, i int) float64 {
	s[i] = 1
	return s[i+1]
}
`)
	if !strings.Contains(out, "*xplrt.TraceW(&s[i]) = 1") {
		t.Errorf("slice store not instrumented:\n%s", out)
	}
	if !strings.Contains(out, "*xplrt.TraceR(&s[i+1])") {
		t.Errorf("slice load not instrumented:\n%s", out)
	}
}

func TestPointerFieldAccess(t *testing.T) {
	out := instrument(t, `package p
type T struct{ a, b int }
func f(q *T) int {
	q.a = 1
	return q.b
}
`)
	if !strings.Contains(out, "*xplrt.TraceW(&q.a) = 1") {
		t.Errorf("pointer field store not instrumented:\n%s", out)
	}
	if !strings.Contains(out, "*xplrt.TraceR(&q.b)") {
		t.Errorf("pointer field load not instrumented:\n%s", out)
	}
}

func TestElisions(t *testing.T) {
	// The paper elides instrumentation for plain variables, address-of
	// operands, and contexts that do not access the location (§III-B).
	// Maps are additionally skipped in Go (elements are not addressable).
	src := `package p
func f(x int, m map[string]int, arr [4]int, s string) (int, *int) {
	y := x + 1       // plain variables
	m["k"] = y       // map index
	_ = arr[0]       // array value
	_ = s[0]         // string index
	p := &y          // address-of
	q := &arr        // address-of array
	_ = q
	return y, p
}
`
	out := instrument(t, src)
	if strings.Contains(out, "xplrt.") {
		t.Errorf("elided contexts were instrumented:\n%s", out)
	}
}

func TestPointerToArrayIndex(t *testing.T) {
	out := instrument(t, `package p
func f(q *[8]int) { q[3] = 1 }
`)
	if !strings.Contains(out, "*xplrt.TraceW(&q[3]) = 1") {
		t.Errorf("pointer-to-array index not instrumented:\n%s", out)
	}
}

func TestAddressOfPlaceElided(t *testing.T) {
	out := instrument(t, `package p
func f(s []int, i int) *int { return &s[i] }
`)
	if strings.Contains(out, "TraceR(&s[i])") || strings.Contains(out, "TraceW") {
		t.Errorf("&s[i] must not be traced (no access happens):\n%s", out)
	}
}

func TestNestedAccessInsideAddressOf(t *testing.T) {
	// &s[*p]: the place s[...] is elided but the index read *p is real.
	out := instrument(t, `package p
func f(s []int, p *int) *int { return &s[*p] }
`)
	if !strings.Contains(out, "&s[*xplrt.TraceR(p)]") {
		t.Errorf("index read inside address-of lost:\n%s", out)
	}
}

func TestReplacePragma(t *testing.T) {
	out := instrument(t, `package p

//xpl:replace alloc trcAlloc
func alloc(n int) []byte { return make([]byte, n) }
func trcAlloc(n int) []byte { return alloc(n) }
func g() []byte { return alloc(10) }
`)
	if !strings.Contains(out, "func g() []byte { return trcAlloc(10) }") &&
		!strings.Contains(out, "return trcAlloc(10)") {
		t.Errorf("replace pragma not applied:\n%s", out)
	}
}

func TestDiagnosticPragma(t *testing.T) {
	out := instrument(t, `package p

import "os"

type pair struct{ first, second *int }

func f(a *pair, z *int) {
	_ = a
	_ = z
	//xpl:diagnostic tracePrint(os.Stdout; a, z)
}

func tracePrint(w interface{ Write([]byte) (int, error) }, args ...any) {}

var _ = os.Stdout
`)
	for _, want := range []string{
		`xplrt.Arg(a, "a")`,
		`xplrt.Arg(z, "z")`,
		"xplrt.ExpandAll(",
		"tracePrint(os.Stdout, xplrt.ExpandAll(",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnostic expansion missing %q:\n%s", want, out)
		}
	}
}

func TestDiagnosticOutsideFunctionFails(t *testing.T) {
	_, err := File("x.go", []byte(`package p

//xpl:diagnostic f(;)
var x int
`), Options{})
	if err == nil {
		t.Error("pragma outside a function accepted")
	}
}

func TestBadPragmas(t *testing.T) {
	cases := []string{
		"package p\n//xpl:replace onlyone\nfunc f() {}\n",
		"package p\n//xpl:replace f !\nfunc f() {}\n",
		"package p\n//xpl:replace f a.b.c\nfunc f() {}\n",
		"package p\nfunc f() {\n//xpl:diagnostic notacall\n}\n",
	}
	for _, src := range cases {
		if _, err := File("x.go", []byte(src), Options{}); err == nil {
			t.Errorf("bad pragma accepted:\n%s", src)
		}
	}
}

func TestTypeErrorRejected(t *testing.T) {
	if _, err := File("x.go", []byte("package p\nfunc f() { undefined() }\n"), Options{}); err == nil {
		t.Error("type error not reported")
	}
}

func TestOutputTypeChecks(t *testing.T) {
	// The instrumented output of a representative program must itself be
	// valid Go (parsed and gofmt-stable).
	src := `package p

type node struct {
	next *node
	val  int
}

func sum(head *node, out []int) int {
	total := 0
	i := 0
	for n := head; n != nil; n = n.next {
		total += n.val
		out[i] = total
		i++
	}
	return total
}
`
	out := instrument(t, src)
	// Instrument again after stripping trace calls? Just re-parse: File
	// requires type info including xplrt; instead verify shape.
	for _, want := range []string{
		"*xplrt.TraceR(&n.next)",
		"*xplrt.TraceR(&n.val)",
		"*xplrt.TraceW(&out[i])",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestScopePragma(t *testing.T) {
	out := instrument(t, `package p

type sc struct{}

//xpl:scope s
func kernel(s *sc, xs []int, p *int) {
	xs[0] = *p
	xs[1] += 1
}

func plain(xs []int) { xs[0] = 1 }
`)
	for _, want := range []string{
		"*xplrt.ScopeW(s, &xs[0]) = *xplrt.ScopeR(s, p)",
		"*xplrt.ScopeRW(s, &xs[1]) += 1",
		"*xplrt.TraceW(&xs[0]) = 1", // unscoped function keeps Trace forms
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestScopePragmaAppliesToFuncLits(t *testing.T) {
	out := instrument(t, `package p

type sc struct{}

//xpl:scope s
func kernel(s *sc, xs []int) {
	f := func() { xs[2] = 9 }
	f()
}
`)
	if !strings.Contains(out, "*xplrt.ScopeW(s, &xs[2]) = 9") {
		t.Errorf("func literal inside scoped function not scoped:\n%s", out)
	}
}

func TestBadScopePragma(t *testing.T) {
	if _, err := File("x.go", []byte("package p\n\n//xpl:scope\nfunc f() {}\n"), Options{}); err == nil {
		t.Error("//xpl:scope without an identifier accepted")
	}
	if _, err := File("x.go", []byte("package p\n\n//xpl:scope!\nfunc f() {}\n"), Options{}); err == nil {
		t.Error("//xpl:scope with a non-identifier accepted")
	}
}

// TestEndToEnd instruments a small program, compiles it against this
// repository's xplrt, runs it, and checks the diagnostic output — the full
// Fig. 1 pipeline (instrument -> backend compile -> link runtime -> run).
func TestEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	repo, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	trackSources(t, repo)
	src := `package main

import "os"

type domain struct {
	data *float64
}

func main() {
	xs := newSlice(64)
	d := &domain{data: &xs[0]}

	// CPU writes everything.
	for i := 0; i < len(xs); i++ {
		xs[i] = float64(i)
	}

	// GPU phase: a scoped kernel reads a few values and writes one.
	onGPU(func(s *gpuScope) {
		gpuPhase(s, xs)
	})

	_ = d
	//xpl:diagnostic report(os.Stdout; d)
}

//xpl:scope s
func gpuPhase(s *gpuScope, xs []float64) {
	acc := 0.0
	for i := 0; i < 8; i++ {
		acc += xs[i]
	}
	xs[0] = acc
}
`
	support := `package main

import (
	"io"

	xplrt "xplacer/xplrt"
)

type gpuScope = xplrt.DeviceScope

func newSlice(n int) []float64 { return xplrt.Slice[float64](n, "xs") }
func onGPU(fn func(*gpuScope)) { xplrt.OnDevice(xplrt.GPU, fn) }
func report(w io.Writer, data ...xplrt.AllocData) {
	xplrt.TracePrint(w, data...)
}
`
	// For type checking, the helpers are declared with stdlib-only
	// signatures; the real implementations (using xplrt) are compiled into
	// the temp module below.
	instrumented, err := File("main.go", []byte(src), Options{
		Support: []NamedSource{{Name: "support_stub.go", Src: []byte(`package main

import "io"

type gpuScope struct{}

func newSlice(n int) []float64 { return nil }
func onGPU(fn func(*gpuScope)) {}
func report(w io.Writer, args ...any) { _ = w }
`)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(instrumented), "xplrt.ScopeR(s, &xs[i])") {
		t.Fatalf("scoped kernel not instrumented with Scope forms:\n%s", instrumented)
	}
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module xpltest\n\ngo 1.22\n\nrequire xplacer v0.0.0\n\nreplace xplacer => "+repo+"\n")
	write("main.go", string(instrumented))
	write("support.go", support)

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\ninstrumented:\n%s\noutput:\n%s", err, instrumented, out)
	}
	text := string(out)
	for _, want := range []string{
		"*** checking",
		"d->data", // the pragma's pointer expansion renamed the slice
		"alternating accesses",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("runtime output missing %q:\n%s", want, text)
		}
	}
	// The CPU wrote all 128 words (64 float64); the GPU read the first 8
	// float64s (16 words). Those words were written by one device and read
	// by the other — the paper's alternating-access definition.
	if !strings.Contains(text, "16 elements with alternating accesses") {
		t.Errorf("expected 16 alternating words:\n%s", text)
	}
	if !strings.Contains(text, "[alternating-cpu-gpu-access] d->data") {
		t.Errorf("expected an alternating finding on d->data:\n%s", text)
	}
}

// trackSources stats every Go source file of the module at root,
// skipping perfbench/ (a module of its own) and dot directories.
// TestEndToEnd runs instrumented code against xplrt through `go run`,
// which the test cache cannot see; stats made inside a test are logged,
// so an edit to any source reruns it instead of replaying a cached pass.
func trackSources(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackageInstrumentsAllFiles(t *testing.T) {
	out, err := Package([]NamedSource{
		{Name: "a.go", Src: []byte(`package p

func store(s []int, i, v int) { s[i] = v }
`)},
		{Name: "b.go", Src: []byte(`package p

func load(p *int) int { return *p }
`)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("files = %d", len(out))
	}
	if !strings.Contains(string(out["a.go"]), "*xplrt.TraceW(&s[i]) = v") {
		t.Errorf("a.go not instrumented:\n%s", out["a.go"])
	}
	if !strings.Contains(string(out["b.go"]), "*xplrt.TraceR(p)") {
		t.Errorf("b.go not instrumented:\n%s", out["b.go"])
	}
	// Each file gets its own runtime import.
	for name, src := range out {
		if !strings.Contains(string(src), `xplrt "xplacer/xplrt"`) {
			t.Errorf("%s missing runtime import", name)
		}
	}
}

func TestPackageCrossFileTypes(t *testing.T) {
	// b.go uses a type declared in a.go: per-file checking would fail,
	// package mode must succeed.
	out, err := Package([]NamedSource{
		{Name: "a.go", Src: []byte("package p\n\ntype T struct{ v int }\n")},
		{Name: "b.go", Src: []byte("package p\n\nfunc get(t *T) int { return t.v }\n")},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out["b.go"]), "*xplrt.TraceR(&t.v)") {
		t.Errorf("cross-file field access not instrumented:\n%s", out["b.go"])
	}
	// a.go has no accesses: unchanged, no import added.
	if strings.Contains(string(out["a.go"]), "xplrt") {
		t.Errorf("a.go needlessly touched:\n%s", out["a.go"])
	}
}

func TestPackageRejectsBrokenFile(t *testing.T) {
	if _, err := Package([]NamedSource{{Name: "x.go", Src: []byte("package p\nfunc {")}}, Options{}); err == nil {
		t.Error("broken file accepted")
	}
}

func TestRangeOverSliceTracesElementReads(t *testing.T) {
	out := instrument(t, `package p
func sum(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}
`)
	if !strings.Contains(out, "for xplIdx := range s") {
		t.Errorf("range key not materialized:\n%s", out)
	}
	if !strings.Contains(out, "v := *xplrt.TraceR(&s[xplIdx])") {
		t.Errorf("element read not traced:\n%s", out)
	}
}

func TestRangeWithNamedKey(t *testing.T) {
	out := instrument(t, `package p
func f(s []float64, out []float64) {
	for i, v := range s {
		out[i] = v
	}
}
`)
	if !strings.Contains(out, "for i := range s") {
		t.Errorf("key binding lost:\n%s", out)
	}
	if !strings.Contains(out, "v := *xplrt.TraceR(&s[i])") {
		t.Errorf("element read not traced:\n%s", out)
	}
	if !strings.Contains(out, "*xplrt.TraceW(&out[i]) = v") {
		t.Errorf("body store not traced:\n%s", out)
	}
}

func TestRangeOverMapUntouched(t *testing.T) {
	out := instrument(t, `package p
func f(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
`)
	if strings.Contains(out, "xplrt") {
		t.Errorf("map range instrumented:\n%s", out)
	}
}

func TestRangeOverCallSkipped(t *testing.T) {
	// Re-evaluating a call per iteration would change semantics: skip.
	out := instrument(t, `package p
func get() []int { return nil }
func f() int {
	t := 0
	for _, v := range get() {
		t += v
	}
	return t
}
`)
	if strings.Contains(out, "TraceR") {
		t.Errorf("call-ranged loop instrumented:\n%s", out)
	}
}

func TestRangeKeyOnlyUntouched(t *testing.T) {
	out := instrument(t, `package p
func f(s []int) int {
	n := 0
	for i := range s {
		n += i
	}
	return n
}
`)
	if strings.Contains(out, "xplrt") {
		t.Errorf("key-only range instrumented:\n%s", out)
	}
}

func TestRangeTransformedCodeRuns(t *testing.T) {
	// Semantics check via the end-to-end machinery is expensive; verify
	// the transformed source is at least well-formed Go.
	out := instrument(t, `package p
type box struct{ items []int }
func total(b *box) int {
	t := 0
	for _, v := range b.items {
		t += v
	}
	return t
}
`)
	if !strings.Contains(out, "v := *xplrt.TraceR(&b.items[xplIdx])") {
		t.Errorf("selector-based range not handled:\n%s", out)
	}
}

func TestRangePragmaCoalesces(t *testing.T) {
	out := instrument(t, `package p
func axpy(dst, src []float64, k float64, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		dst[i] = src[i] * k
	}
}
`)
	// One hoisted call per site, in the per-element recording order
	// (store target first, like *TraceW(&dst[i]) = *TraceR(&src[i])).
	w := strings.Index(out, "xplrt.Range(xplrt.Write, dst[0:n])")
	r := strings.Index(out, "xplrt.Range(xplrt.Read, src[0:n])")
	if w < 0 || r < 0 || r < w {
		t.Errorf("range calls missing or misordered:\n%s", out)
	}
	if !strings.Contains(out, "dst[i] = src[i] * k") {
		t.Errorf("coalesced body sites were still wrapped:\n%s", out)
	}
	if strings.Contains(out, "TraceW(&dst[i])") || strings.Contains(out, "TraceR(&src[i])") {
		t.Errorf("per-element traces left behind:\n%s", out)
	}
}

func TestRangePragmaUpdateAndScope(t *testing.T) {
	out := instrument(t, `package p

type sc struct{}

//xpl:scope s
func kernel(s *sc, xs []int, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		xs[i] += 2
	}
}
`)
	if !strings.Contains(out, "xplrt.ScopeRange(s, xplrt.ReadWrite, xs[0:n])") {
		t.Errorf("scoped read-modify-write range missing:\n%s", out)
	}
	if !strings.Contains(out, "xs[i] += 2") {
		t.Errorf("coalesced site still wrapped:\n%s", out)
	}
}

func TestRangePragmaConditionalFallsBack(t *testing.T) {
	// The if condition runs every iteration (coalescable); the guarded
	// store does not (kept per-element). A different index is never
	// coalesced.
	out := instrument(t, `package p
func f(dst, c []int, j, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		if c[i] > 0 {
			dst[i] = c[j]
		}
	}
}
`)
	if !strings.Contains(out, "xplrt.Range(xplrt.Read, c[0:n])") {
		t.Errorf("unconditional condition read not coalesced:\n%s", out)
	}
	if !strings.Contains(out, "*xplrt.TraceW(&dst[i]) = *xplrt.TraceR(&c[j])") {
		t.Errorf("conditional store / foreign index lost per-element traces:\n%s", out)
	}
}

func TestRangePragmaPointerBaseFallsBack(t *testing.T) {
	// b.items reads through the pointer b every iteration; hoisting the
	// site would drop those header reads, so it stays per-element — and
	// with no coalescable site left, the pragma errors.
	_, err := File("x.go", []byte(`package p
type box struct{ items []int }
func f(b *box, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		b.items[i] = 0
	}
}
`), Options{})
	if err == nil || !strings.Contains(err.Error(), "no coalescable") {
		t.Errorf("pointer-based operand coalesced, err=%v", err)
	}
}

func TestRangePragmaValueStructBase(t *testing.T) {
	out := instrument(t, `package p
type grid struct{ cells []float64 }
func clear(g grid, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		g.cells[i] = 0
	}
}
`)
	if !strings.Contains(out, "xplrt.Range(xplrt.Write, g.cells[0:n])") {
		t.Errorf("value-struct slice field not coalesced:\n%s", out)
	}
}

func TestRangePragmaErrors(t *testing.T) {
	cases := map[string]string{
		"not a for statement": `package p
func f(x int) {
	//xpl:range
	x++
	_ = x
}
`,
		"non-canonical step": `package p
func f(s []int, n int) {
	//xpl:range
	for i := 0; i < n; i += 2 {
		s[i] = 0
	}
}
`,
		"early exit": `package p
func f(s []int, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		if s[i] == 0 {
			break
		}
		s[i] = 1
	}
}
`,
		"loop variable mutated": `package p
func f(s []int, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		s[i] = 0
		i++
	}
}
`,
		"impure bound": `package p
func g() int { return 4 }
func f(s []int) {
	//xpl:range
	for i := 0; i < g(); i++ {
		s[i] = 0
	}
}
`,
		"unattached pragma": `package p
//xpl:range
var x int
`,
	}
	for name, src := range cases {
		if _, err := File("x.go", []byte(src), Options{}); err == nil {
			t.Errorf("%s: bad //xpl:range accepted:\n%s", name, src)
		}
	}
}

func TestRangePragmaLenBound(t *testing.T) {
	out := instrument(t, `package p
func clear(s []int) {
	//xpl:range
	for i := 0; i < len(s); i++ {
		s[i] = 0
	}
}
`)
	if !strings.Contains(out, "xplrt.Range(xplrt.Write, s[0:len(s)])") {
		t.Errorf("len(s) bound not hoisted:\n%s", out)
	}
}

func TestRangePragmaNestedLoops(t *testing.T) {
	// Each pragma binds to its own loop; the inner loop's bound may be the
	// outer loop variable. Sites inside the inner loop never coalesce to
	// the outer variable.
	out := instrument(t, `package p
func tri(s []int, n int) {
	//xpl:range
	for i := 0; i < n; i++ {
		s[i] = 0
		//xpl:range
		for j := 0; j < i; j++ {
			s[j] += 1
		}
	}
}
`)
	if !strings.Contains(out, "xplrt.Range(xplrt.Write, s[0:n])") {
		t.Errorf("outer site not coalesced:\n%s", out)
	}
	if !strings.Contains(out, "xplrt.Range(xplrt.ReadWrite, s[0:i])") {
		t.Errorf("inner site not coalesced to inner loop:\n%s", out)
	}
}

func TestGoDeferAndFuncLit(t *testing.T) {
	out := instrument(t, `package p

func f(s []int, p *int, done chan struct{}) {
	go func() {
		s[0] = *p
		done <- struct{}{}
	}()
	defer func() { *p = s[1] }()
	<-done
}
`)
	for _, want := range []string{
		"*xplrt.TraceW(&s[0]) = *xplrt.TraceR(p)",
		"*xplrt.TraceW(p) = *xplrt.TraceR(&s[1])",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSwitchAndSelect(t *testing.T) {
	out := instrument(t, `package p

func f(p *int, ch chan int) int {
	switch *p {
	case 1:
		return 10
	default:
	}
	select {
	case v := <-ch:
		*p = v
	default:
	}
	return *p
}
`)
	if strings.Count(out, "xplrt.TraceR(p)") != 2 {
		t.Errorf("switch tag / return deref not traced:\n%s", out)
	}
	if !strings.Contains(out, "*xplrt.TraceW(p) = v") {
		t.Errorf("select-case store not traced:\n%s", out)
	}
}

func TestConversionAndBuiltinsUntouched(t *testing.T) {
	out := instrument(t, `package p

func f(n int) []float64 {
	s := make([]float64, n)
	_ = len(s)
	_ = cap(s)
	x := float64(n)
	q := new(int)
	*q = int(x)
	return append(s, x)
}
`)
	// Only the deref write is traced; make/len/cap/new/conversions stay.
	if strings.Count(out, "xplrt.") != 1 || !strings.Contains(out, "*xplrt.TraceW(q) = int(x)") {
		t.Errorf("unexpected instrumentation:\n%s", out)
	}
}
