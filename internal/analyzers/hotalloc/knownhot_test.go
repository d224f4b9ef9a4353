package hotalloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestKnownHotResolves pins every knownHot name to a function declared in
// the module's own source: a contract function that is renamed or deleted
// must take its entry with it, not leave one that guards nothing.
func TestKnownHotResolves(t *testing.T) {
	root := filepath.Join("..", "..", "..") // the module root, from this package's directory
	for suffix, names := range knownHot {
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(suffix), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					declared[funcName(fd)] = true
				}
			}
		}
		if len(declared) == 0 {
			t.Errorf("knownHot package %s declares no functions under %s", suffix, root)
		}
		for _, name := range names {
			if !declared[name] {
				t.Errorf("knownHot names %s.%s, which %s does not declare", suffix, name, suffix)
			}
		}
	}
}
