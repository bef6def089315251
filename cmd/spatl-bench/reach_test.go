package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations under internal/ that no program
// reaches but that stay in the library, one "file name: reason" line
// each. A reason names the test in another package that needs the
// declaration (a _test.go file cannot be imported), or the platform
// that needs it.
const reachAllow = `
internal/algo/scaffold.go SCAFFOLDAggregator.ControlVariate: fl.TestSCAFFOLDControlVariatesSumProperty reads the server control variate
internal/algo/spatl.go SPATLAggregator.ControlVariate: core.TestServerControlVariateMoves reads the server control variate
internal/tensor/ref.go RefMatMul: nn's conv and linear tests compare the GEMM routes against it
internal/tensor/ref.go RefMatMulTransA: nn's conv backward tests compare dW against it
internal/tensor/ref.go RefMatMulTransB: nn's conv tests compare the transposed GEMM route against it
internal/tensor/scratch.go ScratchBytes: fl.TestPassMemoryGate counts a pass's pooled bytes with it
internal/tensor/scratch.go ResetScratchPeak: fl.TestPassMemoryGate starts each measured pass from zero with it
`

// implicitNames are method names the standard library calls through an
// interface, never by name in this module's source.
var implicitNames = []string{"String", "Error", "Write", "Read", "Close", "Len", "Less", "Swap"}

// decl is one package-level declaration: a function or method, or one
// spec of a var, const or type block.
type decl struct {
	file, name string // name is Recv.Method for a method
	key        string // the identifier a use of it names
	lines      int    // with its doc comment
	node       ast.Node
}

// TestLibraryReachesOnlyWhatProgramsUse fails when a declaration under
// internal/ is reached by no program of the module: internal/ cannot be
// imported from outside, so such code only tests call. Reachability
// follows identifier names from every main and init function and every
// package-level var with an initializer, over every non-test file of
// the module whatever its build tags. A name used anywhere keeps every
// declaration of that name, so the scan errs toward keeping code.
func TestLibraryReachesOnlyWhatProgramsUse(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	decls, roots := parseModule(t, root)

	byKey := map[string][]*decl{}
	for _, d := range decls {
		byKey[d.key] = append(byKey[d.key], d)
	}
	live := map[*decl]bool{}
	seen := map[string]bool{}
	var queue []string
	use := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !seen[id.Name] {
				seen[id.Name] = true
				queue = append(queue, id.Name)
			}
			return true
		})
	}
	for _, r := range roots {
		use(r)
	}
	for _, name := range implicitNames {
		seen[name] = true
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, d := range byKey[name] {
			if !live[d] {
				live[d] = true
				use(d.node)
			}
		}
	}

	allowed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(reachAllow), "\n") {
		head, reason, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Fatalf("allowlist line %q has no reason", line)
		}
		allowed[head] = false
	}
	var dead []string
	for _, d := range decls {
		if live[d] || !strings.HasPrefix(d.file, "internal/") {
			continue
		}
		if _, ok := allowed[d.file+" "+d.name]; ok {
			allowed[d.file+" "+d.name] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s (%d lines)", d.file, d.name, d.lines))
	}
	for head, used := range allowed {
		if !used {
			t.Errorf("allowlist entry %q names no unreachable declaration", head)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d declarations under internal/ are reached by no program; delete them, "+
			"move them into the _test.go files that use them, or allowlist them with the "+
			"test or platform that needs them:\n%s", len(dead), strings.Join(dead, "\n"))
	}
}

// parseModule returns every package-level declaration in the module's
// non-test files, and the nodes reachability starts from.
func parseModule(t *testing.T, root string) ([]*decl, []ast.Node) {
	var decls []*decl
	var roots []ast.Node
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		add := func(name, key string, doc *ast.CommentGroup, n ast.Node) {
			from := n.Pos()
			if doc != nil {
				from = doc.Pos()
			}
			decls = append(decls, &decl{file: rel, name: name, key: key, node: n,
				lines: fset.Position(n.End()).Line - fset.Position(from).Line + 1})
		}
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				name := gd.Name.Name
				if gd.Recv == nil && (name == "main" || name == "init") {
					roots = append(roots, gd)
					continue
				}
				if gd.Recv != nil {
					name = recvName(gd.Recv.List[0].Type) + "." + name
				}
				add(name, gd.Name.Name, gd.Doc, gd)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					doc := gd.Doc // a lone spec's comment sits on its declaration
					if len(gd.Specs) > 1 {
						doc = nil
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name.Name, cmp.Or(s.Doc, doc), s)
					case *ast.ValueSpec:
						if gd.Tok == token.VAR && len(s.Values) > 0 {
							roots = append(roots, s)
							continue
						}
						for _, id := range s.Names {
							add(id.Name, id.Name, cmp.Or(s.Doc, doc), s)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, roots
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
