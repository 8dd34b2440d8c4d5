package rpc

import (
	"os"
	"path/filepath"
	"regexp"
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
