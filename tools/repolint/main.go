// Command repolint enforces repo-local invariants the general Go
// toolchain cannot express, using only the stdlib go/ast parser:
//
//   - Deterministic clocks: packages that model time through an injected
//     clock (internal/overload, internal/devsession, internal/macrobench)
//     must not call time.Now or time.Since directly in non-test files.
//     Storing the function value (`c.Clock = time.Now`) is allowed —
//     that IS the seam; calling it directly bypasses the seam and makes
//     rate limits, eviction, and benchmark trajectories untestable.
//
//   - One timer per stage: outside internal/trace, no Observe or
//     ObserveDuration call may name a "stage_" histogram. Stage
//     histograms are fed only by trace.Start's End, from the same clock
//     reading as the stage's span, so the two cannot disagree.
//
//   - Hot paths: files marked //kernelcheck:hotpath (the analyzer's
//     per-expression core) must not call fmt.Sprintf or import regexp;
//     both allocate or backtrack in code that runs per AST node per
//     draft keystroke.
//
// Usage: repolint [dir]... (default "."). Directories are walked for
// .go files; testdata and vendor trees are skipped. Exit code 1 when
// any finding is reported, 2 on usage or I/O problems.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// clockPkgs are the directories (matched as path segments) where direct
// wall-clock calls are banned in favor of the package's clock seam.
var clockPkgs = []string{
	"internal/overload",
	"internal/devsession",
	"internal/macrobench",
}

// stagePkg is the one package allowed to observe stage_* histograms.
const stagePkg = "internal/trace"

const hotpathMarker = "//kernelcheck:hotpath"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type finding struct {
	pos token.Position
	msg string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{"."}
	}
	var files []string
	for _, root := range args {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch d.Name() {
				case "testdata", "vendor", ".git":
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	}
	sort.Strings(files)

	var all []finding
	for _, path := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		all = append(all, lintFile(fset, f, path)...)
	}
	for _, fd := range all {
		fmt.Fprintf(stdout, "%s: %s\n", fd.pos, fd.msg)
	}
	if len(all) > 0 {
		fmt.Fprintf(stdout, "repolint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

func lintFile(fset *token.FileSet, f *ast.File, path string) []finding {
	var out []finding
	slash := filepath.ToSlash(path)
	if inClockPkg(slash) {
		out = append(out, checkClockCalls(fset, f)...)
	}
	if !inPkg(slash, stagePkg) {
		out = append(out, checkStageObserve(fset, f)...)
	}
	if isHotpath(f) {
		out = append(out, checkHotpath(fset, f)...)
	}
	return out
}

func inClockPkg(slash string) bool {
	for _, pkg := range clockPkgs {
		if inPkg(slash, pkg) {
			return true
		}
	}
	return false
}

func inPkg(slash, pkg string) bool {
	return strings.Contains(slash, pkg+"/") || strings.HasSuffix(filepath.Dir(slash), pkg)
}

// checkStageObserve flags Observe/ObserveDuration calls whose name
// argument is a string literal (or a concatenation led by one) starting
// with "stage_": a second timer for a stage trace.Start already times.
func checkStageObserve(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	selectorCalls(f, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
		if (sel.Sel.Name != "Observe" && sel.Sel.Name != "ObserveDuration") || len(call.Args) == 0 {
			return
		}
		arg := call.Args[0]
		for {
			bin, ok := arg.(*ast.BinaryExpr)
			if !ok || bin.Op != token.ADD {
				break
			}
			arg = bin.X
		}
		lit, ok := arg.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return
		}
		if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "stage_") {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("%s(%q) outside %s; time the stage with trace.Start so its span and histogram share one clock reading", sel.Sel.Name, name, stagePkg),
			})
		}
	})
	return out
}

// selectorCalls calls fn for every call of the form X.Name(...) in f.
func selectorCalls(f *ast.File, fn func(call *ast.CallExpr, sel *ast.SelectorExpr)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				fn(call, sel)
			}
		}
		return true
	})
}

// pkgSelector reports whether sel is pkg.Name for a package the file
// imports as pkg (and not a local variable shadowing it).
func pkgSelector(sel *ast.SelectorExpr, pkg string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && id.Obj == nil
}

// importName returns the identifier a file refers to importPath by, or
// "" if the file does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// checkClockCalls flags direct time.Now()/time.Since() call expressions.
// A bare reference (assigning time.Now to a clock field) does not match:
// only the CallExpr form defeats the injected clock.
func checkClockCalls(fset *token.FileSet, f *ast.File) []finding {
	timeName := importName(f, "time")
	if timeName == "" {
		return nil
	}
	var out []finding
	selectorCalls(f, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
		if pkgSelector(sel, timeName) && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: fmt.Sprintf("direct time.%s call in a deterministic-clock package; route it through the package's clock seam", sel.Sel.Name),
			})
		}
	})
	return out
}

func isHotpath(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == hotpathMarker {
				return true
			}
		}
	}
	return false
}

// checkHotpath flags fmt.Sprintf calls and any regexp import in files
// carrying the hotpath marker.
func checkHotpath(fset *token.FileSet, f *ast.File) []finding {
	var out []finding
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "regexp" {
			out = append(out, finding{
				pos: fset.Position(imp.Pos()),
				msg: "regexp imported in a //kernelcheck:hotpath file; hand-roll the scan instead",
			})
		}
	}
	fmtName := importName(f, "fmt")
	if fmtName == "" {
		return out
	}
	selectorCalls(f, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
		if pkgSelector(sel, fmtName) && sel.Sel.Name == "Sprintf" {
			out = append(out, finding{
				pos: fset.Position(call.Pos()),
				msg: "fmt.Sprintf call in a //kernelcheck:hotpath file; build the string with strconv/Builder",
			})
		}
	})
	return out
}
