// Command docscheck enforces the repository's documentation floor in
// two modes.
//
// The default mode walks the given directory trees (default internal
// and cmd) and fails when any Go package lacks a package comment. On
// top of that, the trees named by -exported (default internal/cluster,
// internal/serve, internal/core, internal/experiment, internal/chaos,
// internal/journal — the service-surface packages an operator reads
// first) must carry a doc comment on every exported top-level
// identifier: types, functions, methods on exported types, and
// const/var groups.
//
// The -flagrefs mode cross-checks documentation against the binaries:
// it collects every flag registered by the packages under cmd/ and
// fails when a named documentation file references a flag no binary
// registers — the drift that silently invalidates runbooks when a
// flag is renamed. A doc line (inside an inline code span or fenced
// code block) is checked against a binary's flag set when it names
// that binary; a bare `-flag` span is checked against the union of
// all binaries.
//
// Usage:
//
//	go run ./cmd/docscheck                     # check internal/ and cmd/
//	go run ./cmd/docscheck ./pkg ...           # check explicit trees
//	go run ./cmd/docscheck -exported a,b ...   # override the strict trees
//	go run ./cmd/docscheck -flagrefs README.md docs/OPERATIONS.md
//
// CI runs both modes in the docs job so every package stays documented
// and every documented flag stays real.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("docscheck", flag.ExitOnError)
	exported := fs.String("exported", "internal/cluster,internal/serve,internal/core,internal/experiment,internal/chaos,internal/journal,internal/tenant,internal/httpapi,internal/metrics,internal/sse",
		"comma-separated trees whose exported identifiers must all carry doc comments")
	flagrefs := fs.Bool("flagrefs", false,
		"treat arguments as documentation files and fail on references to unregistered flags")
	_ = fs.Parse(os.Args[1:])

	if *flagrefs {
		os.Exit(runFlagRefs(fs.Args()))
	}
	os.Exit(runDocCheck(fs.Args(), splitList(*exported)))
}

// splitList parses a comma-separated list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// runDocCheck is the default mode: package comments everywhere,
// exported-identifier comments in the strict trees.
func runDocCheck(roots, strictTrees []string) int {
	if len(roots) == 0 {
		roots = []string{"internal", "cmd"}
	}
	var bad []string
	for _, root := range roots {
		offenders, err := checkTree(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			return 2
		}
		bad = append(bad, offenders...)
	}
	for _, dir := range bad {
		fmt.Fprintf(os.Stderr, "docscheck: package in %s has no package comment\n", dir)
	}

	var undocumented []string
	for _, tree := range strictTrees {
		if _, err := os.Stat(tree); err != nil {
			continue // tree absent in this checkout
		}
		offenders, err := checkExportedTree(tree)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			return 2
		}
		undocumented = append(undocumented, offenders...)
	}
	for _, ident := range undocumented {
		fmt.Fprintf(os.Stderr, "docscheck: exported identifier without doc comment: %s\n", ident)
	}
	if len(bad) > 0 || len(undocumented) > 0 {
		return 1
	}
	return 0
}

// checkTree walks one directory tree and returns the directories whose
// packages have no package comment.
func checkTree(root string) ([]string, error) {
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		ok, hasGo, err := dirHasPackageComment(path)
		if err != nil {
			return err
		}
		if hasGo && !ok {
			bad = append(bad, path)
		}
		return nil
	})
	return bad, err
}

// dirHasPackageComment parses the package clauses of the non-test Go
// files in one directory. hasGo reports whether any were found; ok
// reports whether at least one carries a package doc comment.
func dirHasPackageComment(dir string) (ok, hasGo bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		hasGo = true
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return false, hasGo, fmt.Errorf("parsing %s: %w", filepath.Join(dir, name), err)
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, true, nil
		}
	}
	return false, hasGo, nil
}

// checkExportedTree walks one tree and returns "file:line: name" for
// every exported top-level identifier lacking a doc comment.
func checkExportedTree(root string) ([]string, error) {
	var bad []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		for _, decl := range f.Decls {
			bad = append(bad, undocumentedIn(fset, decl)...)
		}
		return nil
	})
	return bad, err
}

// undocumentedIn returns the undocumented exported identifiers of one
// top-level declaration.
func undocumentedIn(fset *token.FileSet, decl ast.Decl) []string {
	var bad []string
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		bad = append(bad, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return nil
		}
		if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
			report(d.Pos(), funcDisplayName(d))
		}
	case *ast.GenDecl:
		groupDocumented := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				// A type must be documented itself; a group comment on a
				// multi-type block is accepted for single-spec decls only
				// (the standard "// Foo is ..." placement).
				if !s.Name.IsExported() {
					continue
				}
				specDocumented := s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != ""
				if !specDocumented && !(groupDocumented && len(d.Specs) == 1) {
					report(s.Pos(), s.Name.Name)
				}
			case *ast.ValueSpec:
				// Const/var: a documented group covers all its specs;
				// otherwise each exported spec needs its own comment.
				if groupDocumented {
					continue
				}
				specDocumented := (s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != "") ||
					(s.Comment != nil && strings.TrimSpace(s.Comment.Text()) != "")
				if specDocumented {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), n.Name)
					}
				}
			}
		}
	}
	return bad
}

// receiverExported reports whether a method's receiver type is
// exported (methods on unexported types are not part of the API
// surface). Plain functions return true.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// funcDisplayName renders "Recv.Name" for methods, "Name" otherwise.
func funcDisplayName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// ---- flag-reference mode ----

// flagVarMethods registers the flag name as the second argument
// (fs.StringVar(&v, "name", ...)); flagValueMethods as the first
// (fs.String("name", ...)).
var (
	flagVarMethods = map[string]bool{
		"StringVar": true, "IntVar": true, "Int64Var": true, "UintVar": true,
		"Uint64Var": true, "BoolVar": true, "Float64Var": true, "DurationVar": true,
	}
	flagValueMethods = map[string]bool{
		"String": true, "Int": true, "Int64": true, "Uint": true,
		"Uint64": true, "Bool": true, "Float64": true, "Duration": true,
	}
)

// runFlagRefs cross-checks doc files against the flags the cmd/
// binaries register.
func runFlagRefs(docs []string) int {
	if len(docs) == 0 {
		fmt.Fprintln(os.Stderr, "docscheck: -flagrefs needs documentation files to check")
		return 2
	}
	byBinary, err := collectBinaryFlags("cmd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 2
	}
	union := map[string]bool{}
	for _, set := range byBinary {
		for f := range set {
			union[f] = true
		}
	}
	bad := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			return 2
		}
		for _, ref := range flagRefsIn(string(data), byBinary, union) {
			fmt.Fprintf(os.Stderr, "docscheck: %s:%d: flag -%s is not registered by %s\n",
				doc, ref.line, ref.flag, ref.scope)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// collectBinaryFlags parses every main package under cmdRoot and
// returns binary name -> registered flag names. Every binary also
// understands the implicit -help/-h of the flag package.
func collectBinaryFlags(cmdRoot string) (map[string]map[string]bool, error) {
	entries, err := os.ReadDir(cmdRoot)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		flags := map[string]bool{"help": true, "h": true}
		dir := filepath.Join(cmdRoot, e.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, fe := range files {
			if fe.IsDir() || !strings.HasSuffix(fe.Name(), ".go") || strings.HasSuffix(fe.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, fe.Name()), nil, 0)
			if err != nil {
				return nil, err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				var nameArg ast.Expr
				switch {
				case flagVarMethods[sel.Sel.Name] && len(call.Args) >= 2:
					nameArg = call.Args[1]
				case flagValueMethods[sel.Sel.Name] && len(call.Args) == 3:
					nameArg = call.Args[0]
				default:
					return true
				}
				if lit, ok := nameArg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
						flags[name] = true
					}
				}
				return true
			})
		}
		out[e.Name()] = flags
	}
	return out, nil
}

// flagRef is one unresolved flag reference in a doc file.
type flagRef struct {
	line  int
	flag  string
	scope string
}

var flagToken = regexp.MustCompile(`(^|[\s"'` + "`" + `])-([a-z][a-z0-9-]*)`)

// flagRefsIn scans markdown for flag references inside code context
// (inline spans and fenced blocks). A line naming one of our binaries
// is checked against that binary's flag set; a bare single-token
// `-flag` span is checked against the union of all binaries; anything
// else (curl flags, go test flags, prose dashes) is ignored.
func flagRefsIn(doc string, byBinary map[string]map[string]bool, union map[string]bool) []flagRef {
	var refs []flagRef
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		codeParts := []string{}
		if inFence {
			codeParts = append(codeParts, line)
		} else {
			// Inline code spans.
			for _, span := range inlineSpans(line) {
				if flag, ok := bareFlagSpan(span); ok {
					if !union[flag] {
						refs = append(refs, flagRef{line: i + 1, flag: flag, scope: "any binary"})
					}
					continue
				}
				codeParts = append(codeParts, span)
			}
		}
		for _, part := range codeParts {
			var owners []string
			for bin := range byBinary {
				if containsWord(part, bin) {
					owners = append(owners, bin)
				}
			}
			if len(owners) == 0 {
				continue
			}
			allowed := map[string]bool{}
			for _, bin := range owners {
				for f := range byBinary[bin] {
					allowed[f] = true
				}
			}
			for _, m := range flagToken.FindAllStringSubmatch(part, -1) {
				if !allowed[m[2]] {
					refs = append(refs, flagRef{line: i + 1, flag: m[2], scope: strings.Join(owners, "/")})
				}
			}
		}
	}
	return refs
}

// inlineSpans extracts `...` spans from one markdown line.
func inlineSpans(line string) []string {
	var spans []string
	parts := strings.Split(line, "`")
	for i := 1; i < len(parts); i += 2 {
		spans = append(spans, parts[i])
	}
	return spans
}

// bareFlagSpan reports whether a span is exactly one flag token like
// "-cache" or "-role standalone", returning the flag name.
func bareFlagSpan(span string) (string, bool) {
	fields := strings.Fields(span)
	if len(fields) == 0 || len(fields) > 2 || !strings.HasPrefix(fields[0], "-") {
		return "", false
	}
	name := strings.TrimPrefix(fields[0], "-")
	name, _, _ = strings.Cut(name, "=")
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return "", false
	}
	return name, true
}

// containsWord reports a whole-word occurrence of w in s.
func containsWord(s, w string) bool {
	idx := 0
	for {
		j := strings.Index(s[idx:], w)
		if j < 0 {
			return false
		}
		j += idx
		beforeOK := j == 0 || !isWordChar(s[j-1])
		after := j + len(w)
		afterOK := after >= len(s) || !isWordChar(s[after])
		if beforeOK && afterOK {
			return true
		}
		idx = j + len(w)
	}
}

// isWordChar classifies identifier-ish characters for word-boundary
// checks.
func isWordChar(c byte) bool {
	return c == '_' || c == '-' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
