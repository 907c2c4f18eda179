package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods that may
// have no caller in non-test code, each with the reason; it holds at most
// 8. Keys are "pkg.Func" or "pkg.Recv.Method".
var surfaceAllowlist = map[string]string{
	"memjoin.NestedLoop":    "the oracle the device-side join tests compare against",
	"memjoin.PlaneSweep":    "the second oracle the device-side join tests compare against",
	"harness.LoadScenario":  "make chaos drives the scenario files through it",
	"harness.RunScenario":   "make chaos drives the scenario files through it",
	"harness.ScenarioFiles": "make chaos lists the scenario files through it",
	"netsim.DialTCP":        "the tests' one-line TCP constructor",
}

// TestNoTestOnlySurface fails on an exported function or method that
// only tests call: code the product never runs still has to be read,
// kept compiling and kept correct. Callers are counted by name, as an
// identifier or selector in any non-test file of the module (benchmark/,
// cmd/ and examples/ included) other than the function's own
// declaration. Delete such a function, or give it a product caller; an
// allowlist entry needs a reason no caller can give.
func TestNoTestOnlySurface(t *testing.T) {
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		collect := !strings.HasPrefix(filepath.ToSlash(p), "benchmark/")
		pkg := path.Base(filepath.ToSlash(filepath.Dir(p)))
		if pkg == "." {
			pkg = "repro"
		}
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok {
				markUses(fd, "", used)
				continue
			}
			if collect && fn.Name.IsExported() {
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
			// Neither the declaration nor a recursive call is a caller.
			markUses(fn, fn.Name.Name, used)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(surfaceAllowlist) > 8 {
		t.Errorf("the allowlist has %d entries, at most 8 are allowed: delete code rather than excuse it", len(surfaceAllowlist))
	}
	declared := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		declared[d.key] = true
		if _, ok := surfaceAllowlist[d.key]; !ok && !used[d.name] {
			orphans = append(orphans, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported but only tests call it: %s", o)
	}
	for key := range surfaceAllowlist {
		name := key[strings.LastIndex(key, ".")+1:]
		switch {
		case !declared[key]:
			t.Errorf("stale allowlist entry %s: no longer declared", key)
		case used[name]:
			t.Errorf("stale allowlist entry %s: it has a non-test caller now", key)
		}
	}
}

// markUses records every identifier under n, selectors included, except
// one spelled self.
func markUses(n ast.Node, self string, used map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != self {
			used[id.Name] = true
		}
		return true
	})
}

// recvName is the type name of a method receiver, pointer and type
// parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
