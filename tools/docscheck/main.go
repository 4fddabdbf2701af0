// Command docscheck enforces the repository's documentation floor:
//
//   - every Go package in the module — the root, internal/, cmd/,
//     examples/ and tools/ alike — must carry a package comment (a doc
//     comment immediately above a `package` clause in at least one of
//     its files);
//   - ARCHITECTURE.md must mention every registered exp scenario
//     family by name, so the family-composition section cannot
//     silently go stale when a new family lands (the check imports
//     internal/exp, so a family registered in code is a family the
//     doc must cover);
//   - ARCHITECTURE.md must likewise name every registered telemetry
//     topic (telemetry.Topics()), so the "Telemetry & control" topic
//     table stays complete as emitters are added;
//   - ARCHITECTURE.md must carry the required sections (currently
//     "## Scale", which documents the flat PTE chunks, the
//     hierarchy generator and the daemon batching contract, and
//     "## Tenancy & SLOs", which documents the multi-tenant ledger,
//     cap enforcement and class-priority contracts);
//   - every backticked dotted Go name in ARCHITECTURE.md or README.md —
//     `pkg.Name`, `pkg.Type.Member` or `Type.Member` — whose first
//     segment is a module package or a declared type must resolve to a
//     declaration, struct field or method, so a rename or deletion
//     cannot leave either document naming code that is gone (file names
//     such as `rect.go` and snake_case metric names such as
//     `kern.hub_idle_period_us` are not Go names);
//   - README.md must name every registered exp scenario family in
//     backticks, as its family table does, and must link
//     ARCHITECTURE.md;
//   - every flag a `numabench` invocation passes in README.md,
//     ARCHITECTURE.md or .claude/skills/verify/SKILL.md — on a line of a
//     fenced code block, or in an inline code span — or in a code line
//     of cmd/numabench/main.go's usage comment must be one that
//     cmd/numabench/main.go defines through the flag package, so a
//     retired flag cannot live on in the docs;
//   - every path under cmd/, tools/, internal/, examples/, artifacts/
//     or benchmark/ that the same code text cites must exist, so a
//     deleted tool or config cannot live on in the docs either;
//   - every backticked test name in ARCHITECTURE.md or README.md —
//     `TestX`, `FuzzX`, `BenchmarkX` or `ExampleX` — must be a function
//     that a _test.go file of the tree declares, in either module (the
//     root's or benchmark/'s), so a deleted or renamed test cannot stay
//     cited as a guard.
//
// CI runs it as the docs job; it exits non-zero listing every
// undocumented package, every family or telemetry topic a document
// misses, every name it cites that does not resolve, every test it
// cites that no test file declares, every numabench flag that does not
// exist and every cited path that is gone.
//
// Usage (from the module root):
//
//	go run ./tools/docscheck
package main

import (
	"fmt"
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

	"numamig/internal/exp"
	"numamig/internal/telemetry"
)

func main() {
	dirs := map[string]bool{}
	var testFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, "_test.go"):
			testFiles = append(testFiles, path)
		case strings.HasSuffix(path, ".go"):
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	tests, err := declaredTests(testFiles)
	if err != nil {
		fatal(err)
	}

	ix := index{names: map[string]bool{}, roots: map[string]bool{}}
	var undocumented []string
	for dir := range dirs {
		documented, err := ix.addDir(dir)
		if err != nil {
			fatal(err)
		}
		if !documented {
			undocumented = append(undocumented, dir)
		}
	}
	sort.Strings(undocumented)
	doc, readme := readFile("ARCHITECTURE.md"), readFile("README.md")
	flags, usage, err := numabenchFlags(numabenchMain)
	if err != nil {
		fatal(err)
	}
	var familyNames []string
	for _, f := range exp.Families() {
		familyNames = append(familyNames, "`"+f+"`")
	}

	failed := report("packages without a package comment", undocumented)
	failed = report("ARCHITECTURE.md does not mention these exp families", absent(doc, exp.Families())) || failed
	failed = report("ARCHITECTURE.md does not mention these telemetry topics", absent(doc, telemetry.Topics())) || failed
	failed = report("ARCHITECTURE.md is missing these required sections", absent(doc, requiredSections)) || failed
	failed = report("ARCHITECTURE.md names Go identifiers that do not resolve", ix.stale(doc)) || failed
	failed = report("README.md names Go identifiers that do not resolve", ix.stale(readme)) || failed
	failed = report("ARCHITECTURE.md names tests that no _test.go file declares", undeclaredTests(doc, tests)) || failed
	failed = report("README.md names tests that no _test.go file declares", undeclaredTests(readme, tests)) || failed
	failed = report("README.md does not name these exp families in backticks", absent(readme, familyNames)) || failed
	failed = report("README.md does not link", absent(readme, []string{"ARCHITECTURE.md"})) || failed
	paths := map[string]bool{}
	for _, d := range []struct {
		name string
		cmds []string
	}{
		{"README.md", markdownCommands(readme)},
		{"ARCHITECTURE.md", markdownCommands(doc)},
		{verifyNotes, markdownCommands(readFile(verifyNotes))},
		{numabenchMain + "'s usage comment", usage},
	} {
		failed = report(d.name+" passes numabench flags that "+numabenchMain+" does not define",
			undefined(invocationFlags(d.cmds), flags)) || failed
		failed = report(d.name+" cites repository paths that do not exist", missingPaths(d.cmds, paths)) || failed
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages documented, %d exp families and %d telemetry topics covered by ARCHITECTURE.md, %d functions declared in test files, %d numabench flags known, %d cited paths exist\n",
		len(dirs), len(exp.Families()), len(telemetry.Topics()), len(tests), len(flags), len(paths))
}

func readFile(name string) string {
	data, err := os.ReadFile(name)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(2)
}

// report prints a failure heading and its items to stderr, and reports
// whether there were any.
func report(heading string, items []string) bool {
	if len(items) == 0 {
		return false
	}
	fmt.Fprintf(os.Stderr, "docscheck: %s:\n", heading)
	for _, it := range items {
		fmt.Fprintf(os.Stderr, "  %s\n", it)
	}
	return true
}

// requiredSections are ARCHITECTURE.md headings whose presence CI
// enforces: sections that document cross-package contracts no single
// package comment can own.
var requiredSections = []string{"## Scale", "## Tenancy & SLOs", "## Artifact"}

// absent returns the entries of want that doc never mentions.
func absent(doc string, want []string) []string {
	var out []string
	for _, w := range want {
		if !strings.Contains(doc, w) {
			out = append(out, w)
		}
	}
	return out
}

// numabenchMain is the file whose flag definitions the documented
// numabench invocations are checked against.
const numabenchMain = "cmd/numabench/main.go"

// verifyNotes shows how to build and drive the repository end to end,
// numabench invocations included.
const verifyNotes = ".claude/skills/verify/SKILL.md"

// flagDefiners maps each flag-package function that defines a flag to
// the position of its name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolVar": 1, "BoolFunc": 0, "Duration": 0, "DurationVar": 1,
	"Float64": 0, "Float64Var": 1, "Func": 0, "Int": 0, "IntVar": 1,
	"Int64": 0, "Int64Var": 1, "String": 0, "StringVar": 1, "TextVar": 1,
	"Uint": 0, "UintVar": 1, "Uint64": 0, "Uint64Var": 1, "Var": 1,
}

// numabenchFlags returns the names of the flags file defines through
// the flag package's top-level functions, and the code lines (the
// indented ones) of its package comment.
func numabenchFlags(file string) (map[string]bool, []string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, nil, err
	}
	var usage []string
	if f.Doc != nil {
		for _, line := range strings.Split(f.Doc.Text(), "\n") {
			if strings.HasPrefix(line, "\t") || strings.HasPrefix(line, " ") {
				usage = append(usage, line)
			}
		}
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		i, definer := flagDefiners[sel.Sel.Name]
		if !ok || pkg.Name != "flag" || !definer || i >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
	if len(flags) == 0 {
		return nil, nil, fmt.Errorf("%s: no flag definitions found", file)
	}
	return flags, usage, nil
}

var (
	// codeSpan matches an inline code span, which may wrap a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// numabenchArgs captures what follows a numabench command name up
	// to a shell operator or comment.
	numabenchArgs = regexp.MustCompile(`\bnumabench\b([^#&|;<>]*)`)
	// flagArg matches a command-line flag, capturing its name.
	flagArg = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
)

// markdownCommands returns the text of doc that may hold commands: the
// lines of its fenced code blocks, then its inline code spans.
func markdownCommands(doc string) []string {
	var cmds []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			cmds = append(cmds, line)
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range codeSpan.FindAllStringSubmatch(prose.String(), -1) {
		cmds = append(cmds, m[1])
	}
	return cmds
}

// repoPath matches a path under one of the repository's top-level
// code and output directories, optionally written ./-relative, where a
// word starts: numamig/internal/exp is an import path, not a file.
var repoPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:cmd|tools|internal|examples|artifacts|benchmark)/[\w./-]*)`)

// missingPaths returns, once each, the repository paths cited in cmds
// that do not exist, recording every path it checks in seen.
func missingPaths(cmds []string, seen map[string]bool) []string {
	var out []string
	for _, cmd := range cmds {
		for _, m := range repoPath.FindAllStringSubmatch(cmd, -1) {
			p := strings.TrimRight(m[1], ".")
			if seen[p] {
				continue
			}
			seen[p] = true
			if _, err := os.Stat(p); err != nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// invocationFlags returns, in order of appearance, the flags passed by
// the numabench invocations in cmds.
func invocationFlags(cmds []string) []string {
	var out []string
	for _, cmd := range cmds {
		for _, m := range numabenchArgs.FindAllStringSubmatch(cmd, -1) {
			for _, arg := range strings.Fields(m[1]) {
				if f := flagArg.FindStringSubmatch(arg); f != nil {
					out = append(out, f[1])
				}
			}
		}
	}
	return out
}

// undefined returns, once each, the entries of used that defined lacks.
func undefined(used []string, defined map[string]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, u := range used {
		if !defined[u] && !seen[u] {
			seen[u] = true
			out = append(out, "-"+u)
		}
	}
	return out
}

// testName matches a backticked test, fuzz, benchmark or example
// function name, capturing it. As for go test, the prefix must not be
// followed by a lower-case letter, so `Examples` is not a test name.
var testName = regexp.MustCompile("`((?:Test|Fuzz|Benchmark|Example)(?:[^a-z`\\W]\\w*)?)`")

// declaredTests returns the names of the top-level functions the test
// files declare.
func declaredTests(files []string) (map[string]bool, error) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names, nil
}

// undeclaredTests returns, once each in order of first appearance, the
// backticked test names in doc that no test file declares.
func undeclaredTests(doc string, declared map[string]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range testName.FindAllStringSubmatch(doc, -1) {
		if name := m[1]; !declared[name] && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// index holds the names a backticked reference may resolve to —
// `pkg.Name`, `pkg.Type.Member` and `Type.Member`, members being methods
// and struct or interface fields — and the first segments the check
// covers: package names and declared type names.
type index struct{ names, roots map[string]bool }

// addDir indexes the non-test Go files of dir and reports whether any
// of them carries a package doc comment.
func (ix index) addDir(dir string) (documented bool, err error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return false, fmt.Errorf("%s: %w", dir, err)
	}
	for pkg, p := range pkgs {
		ix.roots[pkg] = true
		for _, f := range p.Files {
			documented = documented || f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != ""
			ix.addDecls(pkg, f.Decls)
		}
	}
	return documented, nil
}

func (ix index) addDecls(pkg string, decls []ast.Decl) {
	member := func(typ, name string) {
		ix.names[pkg+"."+typ+"."+name], ix.names[typ+"."+name] = true, true
	}
	for _, d := range decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.names[pkg+"."+d.Name.Name] = true
			} else {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.names[pkg+"."+n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					ix.names[pkg+"."+typ], ix.roots[typ] = true, true
					var fields *ast.FieldList
					switch t := s.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					default:
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 { // embedded
							member(typ, typeName(fl.Type))
						}
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName returns the type name of a receiver or embedded-field
// expression (T, *T, T[P], pkg.T), or "".
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	}
	return ""
}

// backticked matches a backticked dotted name with an optional call
// suffix (`exp.Families()`), capturing the name.
var backticked = regexp.MustCompile("`([A-Za-z_]\\w*(?:\\.[A-Za-z_]\\w*)+)(?:\\(\\))?`")

// fileExts are final segments that make a backticked name a file name
// (`rect.go`, `fig7.json`) rather than a Go name.
var fileExts = map[string]bool{"go": true, "md": true, "json": true, "csv": true, "txt": true, "yml": true, "pprof": true, "sha256": true}

// stale returns, in order of first appearance, the backticked dotted
// names in doc that start at a package or type name but resolve to no
// declaration. A name with an underscore is a benchmark metric or grid
// column, never a Go name.
func (ix index) stale(doc string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range backticked.FindAllStringSubmatch(doc, -1) {
		name := m[1]
		segs := strings.Split(name, ".")
		if seen[name] || fileExts[segs[len(segs)-1]] || strings.Contains(name, "_") || !ix.roots[segs[0]] || ix.names[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}
