package instr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestImportsCheckedOnce pins the shared source importer: two separate
// checks resolve fmt to the same *types.Package, so the second did not
// type-check fmt from source again.
func TestImportsCheckedOnce(t *testing.T) {
	fmtOf := func() *types.Package {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "a.go", "package a\n\nimport \"fmt\"\n\nvar _ = fmt.Sprint\n", 0)
		if err != nil {
			t.Fatal(err)
		}
		info, err := check(fset, []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		for id, obj := range info.Uses {
			if pn, ok := obj.(*types.PkgName); ok && id.Name == "fmt" {
				return pn.Imported()
			}
		}
		t.Fatal("fmt is not resolved")
		return nil
	}
	if a, b := fmtOf(), fmtOf(); a != b {
		t.Fatalf("two checks resolved fmt to two packages (%p, %p): each type-checked it from source", a, b)
	}
}
