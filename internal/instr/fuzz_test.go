package instr

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// FuzzInstrument pins the instrumenter's robustness contract: for any
// input that parses as Go, File returns source that parses, or an
// error; it never panics. The seeds are the golden corpus inputs.
func FuzzInstrument(f *testing.F) {
	inputs, err := filepath.Glob("testdata/corpus/*.input")
	if err != nil || len(inputs) == 0 {
		f.Fatalf("no corpus inputs: %v", err)
	}
	for _, in := range inputs {
		src, err := os.ReadFile(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if _, err := parser.ParseFile(token.NewFileSet(), "input.go", src, parser.ParseComments); err != nil {
			return
		}
		out, err := File("input.go", src, Options{})
		if err != nil {
			return
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "input.go", out, parser.ParseComments); err != nil {
			t.Fatalf("instrumented output does not parse: %v\n--- input ---\n%s\n--- output ---\n%s", err, src, out)
		}
	})
}
