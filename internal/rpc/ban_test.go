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
			name := info.Name()
			if name == ".git" || name == "testdata" {
				return filepath.SkipDir
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
