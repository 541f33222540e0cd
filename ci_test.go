package pipetune

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps the CI workflow honest: every
// alternative of every `go test -run` pattern in .github/workflows/ci.yml
// must match a Test function in the packages that command tests. A
// renamed or deleted test would otherwise drop out of its CI step
// silently — the step still passes, having run nothing.
func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runRE := regexp.MustCompile(`go test .*-run ('[^']*'|"[^"]*"|\S+)`)
	checked := 0
	for _, line := range strings.Split(string(raw), "\n") {
		m := runRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.Trim(m[1], `'"`)
		if pattern == "^$" {
			continue // benchmark and fuzz steps run no tests by design
		}
		var names []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				names = append(names, testNames(t, f)...)
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml: bad -run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no test in: %s", alt, strings.TrimSpace(line))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run patterns in ci.yml")
	}
}

var testFuncRE = regexp.MustCompile(`(?m)^func (Test\w*)\(\w+ \*testing\.T\)`)

// testNames lists the Test functions of one package directory, or of
// every package below it for a "/..." pattern, skipping nested modules
// and hidden directories the go tool ignores too.
func testNames(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			nestedModule := modErr == nil
			if !recursive || nestedModule || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("listing tests of %s: %v", pkg, err)
	}
	return names
}
