package rpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestNoRawWireDialsOutsideSessionLayer enforces the session-layer
// invariant (DESIGN.md §13): internal/rpc owns every control-plane
// connection, so no package other than rpc itself (and wire's own
// tests) may call wire.DialContext — and the removed wire.Dial /
// wire.DialTimeout must not creep back in anywhere.
func TestNoRawWireDialsOutsideSessionLayer(t *testing.T) {
	// The session layer itself, and wire's in-package tests, are the
	// only legitimate homes for a raw dial.
	offenders := goFilesMatching(t, `wire\.Dial`, func(rel string) bool {
		return strings.HasPrefix(rel, "internal/rpc/") || strings.HasPrefix(rel, "internal/wire/")
	})
	if len(offenders) > 0 {
		t.Fatalf("raw wire.Dial* outside internal/rpc in: %v — route the connection through rpc.Pool/rpc.Peer (or rpc.DialSession for a bare session)", offenders)
	}
}

// TestNoRawTCPDialsOutsideTheTransports keeps every TCP connection behind
// one of the transports that own its lifecycle: dataserver.Bulk for bulk
// reads (its pool is why a read no longer starts with a dial), wire for
// control sessions, the emulated switch's OpenFlow channel, and the chaos
// injectors that stand in for the network itself. A net.Dialer anywhere
// else under internal/ is a second bulk client (dial, one request, close)
// growing back.
func TestNoRawTCPDialsOutsideTheTransports(t *testing.T) {
	allowed := []string{"internal/dataserver/bulk.go", "internal/wire/wire.go", "internal/sdn/switchdev.go", "internal/chaos/"}
	offenders := goFilesMatching(t, `net\.Dialer|net\.Dial\(`, func(rel string) bool {
		return !strings.HasPrefix(rel, "internal/") || strings.HasSuffix(rel, "_test.go") ||
			slices.ContainsFunc(allowed, func(prefix string) bool { return strings.HasPrefix(rel, prefix) })
	})
	if len(offenders) > 0 {
		t.Fatalf("raw TCP dial in: %v — read bulk data through dataserver.Bulk, reach the control plane through rpc.Pool", offenders)
	}
}

// TestOneSendLoop keeps bulk bytes on one path to the socket: the
// dataserver's sendfile loop, paced by a fabric.Gate. A raw descriptor or
// a sendfile call anywhere else under internal/ is a second send loop —
// one the pacer does not see, or a copy loop beside the zero-copy one.
func TestOneSendLoop(t *testing.T) {
	offenders := goFilesMatching(t, `syscall\.Sendfile|\.SyscallConn\(`, func(rel string) bool {
		return !strings.HasPrefix(rel, "internal/") || rel == "internal/dataserver/sendfile.go"
	})
	if len(offenders) > 0 {
		t.Fatalf("sendfile or a raw socket descriptor in: %v — send bulk bytes through the dataserver's send loop (internal/dataserver/sendfile.go)", offenders)
	}
}

// TestOneReleasePath keeps flow releases off the callers' critical paths:
// a release is RPCClient.Release, queued to ride the stub's next Select,
// and only the stub's own flush sends fs.Finished. A synchronous
// fs.Finished anywhere else outside tests and bench/ is a round trip
// growing back onto a read or an append.
func TestOneReleasePath(t *testing.T) {
	offenders := goFilesMatching(t, `MethodFinished\.Call|\.Finished\(`, func(rel string) bool {
		return strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(rel, "bench/") || rel == "internal/flowserver/rpc.go"
	})
	if len(offenders) > 0 {
		t.Fatalf("synchronous fs.Finished in: %v — release flows with flowserver.RPCClient.Release", offenders)
	}
}

// TestNoTruncatingWritesInTheChunkStore keeps the dataserver's writes
// positional: os.WriteFile and O_TRUNC empty a file before refilling it.
// Rewriting a chunk's checksum sidecar that way cost every append piece
// ~75 µs against ~15 µs for a positional write, and rewriting meta.json
// that way let a reader see it empty.
func TestNoTruncatingWritesInTheChunkStore(t *testing.T) {
	offenders := goFilesMatching(t, `os\.WriteFile|O_TRUNC`, func(rel string) bool {
		return !strings.HasPrefix(rel, "internal/dataserver/") || strings.HasSuffix(rel, "_test.go")
	})
	if len(offenders) > 0 {
		t.Fatalf("truncating write in: %v — write chunks and sidecars in place with WriteAt, and metadata by rename", offenders)
	}
}

// TestNoRawHandlersOutsideTheSeam keeps "how a control message becomes
// a Go value" a decision of this package (DESIGN.md §13): a service that
// mentions json.RawMessage is unmarshalling params by hand again instead
// of declaring an rpc.Method. Tests may script raw handlers, and bench/
// (a separate module with its own echo probe) is not this repo's
// control plane.
func TestNoRawHandlersOutsideTheSeam(t *testing.T) {
	offenders := goFilesMatching(t, `json\.RawMessage`, func(rel string) bool {
		return strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(rel, "bench/") ||
			strings.HasPrefix(rel, "internal/rpc/") || strings.HasPrefix(rel, "internal/wire/")
	})
	if len(offenders) > 0 {
		t.Fatalf("json.RawMessage outside internal/rpc and internal/wire in: %v — declare the method as an rpc.Method[Req, Resp] and register it with Handle", offenders)
	}
}

// TestNoJSONBytesInDataserverMessages keeps bulk bytes off base64: in
// internal/dataserver, the one service whose messages carry payloads, a
// []byte field of a message struct (one with json tags) must be tagged
// `json:"-"` and travel as the frame's raw attachment (Attached) — a
// JSON-named one is the 4/3-size, three-copy path PR 18 removed.
func TestNoJSONBytesInDataserverMessages(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(root, "internal", "dataserver", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	jsonName := func(f *ast.Field) (name string, tagged bool) {
		if f.Tag == nil {
			return "", false
		}
		tag, tagged := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Lookup("json")
		name, _, _ = strings.Cut(tag, ",")
		return name, tagged
	}
	messages := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, _ := n.(*ast.TypeSpec)
			if spec == nil {
				return true
			}
			st, _ := spec.Type.(*ast.StructType)
			if st == nil || !slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool { _, tagged := jsonName(f); return tagged }) {
				return true
			}
			messages++
			for _, f := range st.Fields.List {
				arr, _ := f.Type.(*ast.ArrayType)
				if arr == nil || arr.Len != nil {
					continue
				}
				if elem, _ := arr.Elt.(*ast.Ident); elem == nil || elem.Name != "byte" {
					continue
				}
				if name, _ := jsonName(f); name != "-" {
					t.Errorf("dataserver.%s.%s is a []byte that would cross the wire as base64 in JSON — tag it `json:\"-\"` and implement rpc.Attached", spec.Name.Name, f.Names[0].Name)
				}
			}
			return true
		})
	}
	if messages == 0 {
		t.Fatal("found no message structs in internal/dataserver: the guard is looking in the wrong place")
	}
}

// TestEveryOptionIsSet keeps knobs from growing back: every exported
// field of the repo's option structs must be set by code that ships —
// a non-test file anywhere in the repo, bench/, cmd/, examples/ and the
// chaos scenarios included. A field counts as set when a composite
// literal of its type names it as a key, or when code outside the
// declaring file assigns it or takes its address (a flag binding). A
// field nobody sets is a constant at its default: make it one.
//
// The check is syntactic but keyed by type, not field name: it follows
// each variable's declared or inferred type through parameters,
// declarations, composite literals, function and method results,
// struct fields, indexing and range, so rpc.Options.ConnectTimeout being
// set says nothing about dataserver.Config.ConnectTimeout.
func TestEveryOptionIsSet(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := parseTree(root)
	if err != nil {
		t.Fatal(err)
	}
	tracked := []string{
		"internal/client.Options", "internal/dataserver.Config",
		"internal/testbed.ClusterConfig", "internal/testbed.ExperimentConfig",
		"internal/experiment.Config", "internal/flowctl.Options", "internal/flowctl.ShardConfig",
		"internal/flowserver.Options", "internal/rpc.Options", "internal/kvstore.Options",
	}
	set := tree.setFields()
	var unset []string
	for _, name := range tracked {
		key := tree.module + "/" + name
		fields := tree.structs[key]
		if len(fields) == 0 {
			t.Fatalf("%s declares no fields: the guard is looking in the wrong place", name)
		}
		for _, f := range fields {
			if ast.IsExported(f) && !set[key+"."+f] {
				unset = append(unset, strings.TrimPrefix(name, "internal/")+"."+f)
			}
		}
	}
	if len(unset) > 0 {
		t.Errorf("options no shipped code sets: %v — replace each with a constant at its default", unset)
	}
}

// goTree is every non-test Go file under the module root, with enough of
// an index to type selector expressions syntactically. Type keys are
// "<import path>.<name>"; slices and maps key as "[]" + element key.
type goTree struct {
	module  string
	files   []*goFile
	structs map[string][]string // type key → field names, in order
	fields  map[string]string   // type key + "." + field → field type key
	results map[string]string   // func key (or type key + "." + method) → first result type key
	declIn  map[string]string   // type key → declaring file
}

type goFile struct {
	rel, pkg string
	ast      *ast.File
	imports  map[string]string // local name → import path
}

func parseTree(root string) (*goTree, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	tr := &goTree{module: module, structs: map[string][]string{}, fields: map[string]string{},
		results: map[string]string{}, declIn: map[string]string{}}
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && path != root && (strings.HasPrefix(info.Name(), ".") || info.Name() == "testdata") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		f := &goFile{rel: rel, pkg: module + "/" + filepath.ToSlash(filepath.Dir(rel)), ast: file, imports: map[string]string{}}
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			f.imports[name] = p
		}
		tr.files = append(tr.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range tr.files {
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, _ := spec.(*ast.TypeSpec)
					if ts == nil {
						continue
					}
					st, _ := ts.Type.(*ast.StructType)
					if st == nil {
						continue
					}
					key := f.pkg + "." + ts.Name.Name
					tr.declIn[key] = f.rel
					for _, fld := range st.Fields.List {
						names := fld.Names
						if len(names) == 0 { // embedded: named after its type
							k := tr.typeKey(f, fld.Type)
							names = []*ast.Ident{ast.NewIdent(k[strings.LastIndex(k, ".")+1:])}
						}
						for _, n := range names {
							tr.structs[key] = append(tr.structs[key], n.Name)
							tr.fields[key+"."+n.Name] = tr.typeKey(f, fld.Type)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Type.Results == nil || len(d.Type.Results.List) == 0 {
					continue
				}
				key := f.pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = tr.typeKey(f, d.Recv.List[0].Type) + "." + d.Name.Name
				}
				tr.results[key] = tr.typeKey(f, d.Type.Results.List[0].Type)
			}
		}
	}
	return tr, nil
}

// typeKey resolves a type expression written in f.
func (tr *goTree) typeKey(f *goFile, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return f.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
			return f.imports[x.Name] + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		return tr.typeKey(f, e.X)
	case *ast.ArrayType:
		return "[]" + tr.typeKey(f, e.Elt)
	case *ast.MapType:
		return "[]" + tr.typeKey(f, e.Value)
	}
	return ""
}

// setFields returns "<type key>.<field>" for every field some file sets.
func (tr *goTree) setFields() map[string]bool {
	set := map[string]bool{}
	var markLit func(lit *ast.CompositeLit, key string)
	markLit = func(lit *ast.CompositeLit, key string) {
		for _, elt := range lit.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if k, ok := kv.Key.(*ast.Ident); ok && !strings.HasPrefix(key, "[]") {
					set[key+"."+k.Name] = true
				}
				elt = kv.Value
			}
			if u, ok := elt.(*ast.UnaryExpr); ok {
				elt = u.X
			}
			if inner, ok := elt.(*ast.CompositeLit); ok && inner.Type == nil && strings.HasPrefix(key, "[]") {
				markLit(inner, key[2:])
			}
		}
	}
	for _, f := range tr.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && lit.Type != nil {
				markLit(lit, tr.typeKey(f, lit.Type))
			}
			return true
		})
		for _, decl := range f.ast.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				env := map[string]string{}
				if fn.Recv != nil {
					tr.bind(f, env, fn.Recv)
				}
				tr.walk(f, env, fn.Type, fn.Body, set)
			}
		}
	}
	return set
}

func (tr *goTree) bind(f *goFile, env map[string]string, params *ast.FieldList) {
	for _, p := range params.List {
		for _, n := range p.Names {
			env[n.Name] = tr.typeKey(f, p.Type)
		}
	}
}

// walk follows one function body, typing its variables in source order
// and marking the tracked fields it assigns. A function literal gets its
// own copy of the enclosing scope.
func (tr *goTree) walk(f *goFile, env map[string]string, sig *ast.FuncType, body *ast.BlockStmt, set map[string]bool) {
	tr.bind(f, env, sig.Params)
	mark := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if key := tr.typeOf(f, env, sel.X); key != "" && tr.declIn[key] != f.rel {
				set[key+"."+sel.Sel.Name] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := make(map[string]string, len(env))
			for k, v := range env {
				inner[k] = v
			}
			tr.walk(f, inner, n.Type, n.Body, set)
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				mark(lhs)
				id, ok := lhs.(*ast.Ident)
				if !ok || (i > 0 && len(n.Rhs) != len(n.Lhs)) {
					continue
				}
				if key := tr.typeOf(f, env, n.Rhs[min(i, len(n.Rhs)-1)]); key != "" {
					env[id.Name] = key
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if n.Type != nil {
					env[id.Name] = tr.typeKey(f, n.Type)
				} else if i < len(n.Values) {
					env[id.Name] = tr.typeOf(f, env, n.Values[i])
				}
			}
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok {
				if key := tr.typeOf(f, env, n.X); strings.HasPrefix(key, "[]") {
					env[id.Name] = key[2:]
				}
			}
		}
		return true
	})
}

// typeOf infers the type key of an expression, "" when it cannot.
func (tr *goTree) typeOf(f *goFile, env map[string]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return env[e.Name]
	case *ast.ParenExpr:
		return tr.typeOf(f, env, e.X)
	case *ast.StarExpr:
		return tr.typeOf(f, env, e.X)
	case *ast.UnaryExpr:
		return tr.typeOf(f, env, e.X)
	case *ast.CompositeLit:
		return tr.typeKey(f, e.Type)
	case *ast.IndexExpr:
		if key := tr.typeOf(f, env, e.X); strings.HasPrefix(key, "[]") {
			return key[2:]
		}
	case *ast.SelectorExpr:
		if key := tr.typeOf(f, env, e.X); key != "" {
			return tr.fields[key+"."+e.Sel.Name]
		}
	case *ast.CallExpr:
		switch fn := e.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "new" && len(e.Args) == 1 {
				return tr.typeKey(f, e.Args[0])
			}
			return tr.results[f.pkg+"."+fn.Name]
		case *ast.SelectorExpr:
			if x, ok := fn.X.(*ast.Ident); ok && f.imports[x.Name] != "" && env[x.Name] == "" {
				return tr.results[f.imports[x.Name]+"."+fn.Sel.Name]
			}
			if key := tr.typeOf(f, env, fn.X); key != "" {
				return tr.results[key+"."+fn.Sel.Name]
			}
		}
	}
	return ""
}

// goFilesMatching returns the repo's .go files (slash-separated, relative
// to the module root) whose text matches pattern, leaving out those skip
// accepts.
func goFilesMatching(t *testing.T, pattern string, skip func(rel string) bool) []string {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ban := regexp.MustCompile(pattern)
	var offenders []string
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir // .git, the benchmarks' build directory
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if skip(rel) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if ban.Match(data) {
			offenders = append(offenders, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return offenders
}

// moduleRoot walks up from the test's working directory to the directory
// containing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
