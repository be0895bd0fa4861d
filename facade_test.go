package vmwild_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeFiles are the files that make up the public surface.
var facadeFiles = []string{"vmwild.go", "study.go"}

// TestFacadeNamesAreUsed keeps the facade to the names its programs use.
// An exported top-level name in the facade files stays only when a Go file
// outside them names it as vmwild.X (commands, examples, bench, root tests),
// a README code block does, or it is a type in the signature of a kept
// function or a kept Study method. A Study method is kept when a file that
// imports vmwild selects it by name.
func TestFacadeNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	var decls []ast.Decl
	for _, name := range facadeFiles {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		decls = append(decls, f.Decls...)
	}

	named, selected := namesOutsideFacade(t, fset)
	readmeNames(t, named)

	exported := map[string]bool{}
	var funcs []*ast.FuncDecl
	for _, d := range decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					exported[s.Name.Name] = s.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported[n.Name] = n.IsExported()
					}
				}
			}
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported[d.Name.Name] = d.Name.IsExported()
			}
			funcs = append(funcs, d)
		}
	}

	// Types in the signatures of kept functions and kept Study methods.
	inSignature := map[string]bool{}
	for _, fn := range funcs {
		if !fn.Name.IsExported() {
			continue
		}
		if fn.Recv == nil && !named[fn.Name.Name] || fn.Recv != nil && !selected[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Type, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && exported[id.Name] {
				inSignature[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	for name, exp := range exported {
		if exp && !named[name] && !inSignature[name] {
			unused = append(unused, name)
		}
	}
	for _, fn := range funcs {
		if fn.Recv != nil && fn.Name.IsExported() && !selected[fn.Name.Name] {
			unused = append(unused, "Study."+fn.Name.Name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d facade names are used by no program; delete them or use them:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// namesOutsideFacade parses every Go file of the module except the facade
// files. It returns the names selected as vmwild.X, and every name selected
// on anything else in a file that imports vmwild (candidate Study methods).
func namesOutsideFacade(t *testing.T, fset *token.FileSet) (named, selected map[string]bool) {
	t.Helper()
	named, selected = map[string]bool{}, map[string]bool{}
	facade := map[string]bool{}
	for _, name := range facadeFiles {
		facade[name] = true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || facade[path] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "vmwild" {
				pkgName = "vmwild"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		if pkgName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkgName {
				named[sel.Sel.Name] = true
			} else {
				selected[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return named, selected
}

// readmeNames adds every vmwild.X inside a fenced code block of README.md.
func readmeNames(t *testing.T, named map[string]bool) {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref := regexp.MustCompile(`\bvmwild\.([A-Z]\w*)`)
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock = !inBlock
			continue
		}
		if !inBlock {
			continue
		}
		for _, m := range ref.FindAllStringSubmatch(line, -1) {
			named[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
