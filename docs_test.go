package mayflower_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A repo path: ./x, or cmd/x, internal/x or examples/x, at the start
	// of a token (backticked, in a code block or a layout listing).
	docPathRE = regexp.MustCompile("(?:^|[\\s`(\\[])(?:\\./|\\.?/?((?:cmd|internal|examples)/))([\\w./*-]*)")
	// A test, benchmark or fuzz target.
	docTestRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// A command line: mayflower or mayflower-<cmd> and the rest of its
	// line up to the end of a code span, a table cell or a shell comment.
	docCmdRE  = regexp.MustCompile("\\bmayflower(-[a-z0-9]+)?\\b([^`|#\\n]*)")
	docFlagRE = regexp.MustCompile(`(?:^|[\s/])--?([a-zA-Z][\w-]*)`)
	// A flag definition in a command's main.go: fs.Int("name", ...) or
	// fs.IntVar(&v, "name", ...).
	flagDefRE  = regexp.MustCompile(`\.(?:Bool|Int|Int64|Float64|String|Duration)(?:Var)?\(\s*(?:&\w+\s*,\s*)?"([^"]+)"`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// TestDocsCiteLiveCode keeps README.md, EXPERIMENTS.md and DESIGN.md
// honest: every repo path they cite exists, every test, benchmark and
// fuzz target they name is defined in some _test.go file, and every
// flag they pass to the mayflower CLI or a mayflower-<cmd> binary is
// defined by that command's main.go.
func TestDocsCiteLiveCode(t *testing.T) {
	funcs := testFuncs(t)
	flags := map[string]map[string]bool{}
	var paths, tests, cmdFlags int
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			at := func(format string, args ...any) {
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, m := range docPathRE.FindAllStringSubmatch(line, -1) {
				paths++
				if p := m[1] + m[2]; !pathExists(p) {
					at("cites %s, which does not exist", p)
				}
			}
			for _, name := range docTestRE.FindAllString(line, -1) {
				tests++
				if !funcs[name] {
					at("cites %s, which no _test.go defines", name)
				}
			}
			for _, m := range docCmdRE.FindAllStringSubmatch(line, -1) {
				cmd := "mayflower" + m[1]
				defined, ok := flags[cmd]
				if !ok {
					defined = definedFlags(t, cmd)
					flags[cmd] = defined
				}
				for _, f := range docFlagRE.FindAllStringSubmatch(m[2], -1) {
					cmdFlags++
					if !defined[f[1]] {
						at("cites %s -%s, a flag %s does not define", cmd, f[1], cmd)
					}
				}
			}
		}
	}
	if paths == 0 || tests == 0 || cmdFlags == 0 {
		t.Fatalf("matched %d paths, %d tests and %d flags: the patterns no longer fit the docs", paths, tests, cmdFlags)
	}
	t.Logf("checked %d paths, %d tests and %d flags", paths, tests, cmdFlags)
}

// pathExists reports whether a cited path exists, after dropping a go
// package pattern's /... and trailing punctuation, and failing that a
// trailing .Symbol (internal/flowserver.Server names the package). What
// is left of ./... is the repo root.
func pathExists(p string) bool {
	p = strings.TrimRight(strings.TrimSuffix(p, "/..."), ".,:*")
	if _, err := os.Stat(p); p == "" || err == nil {
		return true
	}
	base := strings.LastIndex(p, "/") + 1
	dot := strings.Index(p[base:], ".")
	if dot < 0 {
		return false
	}
	_, err := os.Stat(p[:base+dot])
	return err == nil
}

// testFuncs collects the name of every top-level func in the repo's
// _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// definedFlags returns the flags cmd/<cmd>/main.go defines; a command
// that does not exist defines none, so any flag cited for it fails.
func definedFlags(t *testing.T, cmd string) map[string]bool {
	src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range flagDefRE.FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	return flags
}
