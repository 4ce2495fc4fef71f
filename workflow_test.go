package leakydnn

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestWorkflowTestSelectorsMatch: a go test step in a CI workflow that
// selects tests by a pattern naming a deleted or renamed test passes while
// running nothing. Every alternative of every -run, -bench and -fuzz pattern
// in the workflows must match a test function in the packages its command
// lists.
func TestWorkflowTestSelectorsMatch(t *testing.T) {
	kinds := map[string]string{"-run": "Test|Example|Fuzz", "-bench": "Benchmark", "-fuzz": "Fuzz"}
	for _, wf := range []string{"ci.yml", "nightly.yml"} {
		data, err := os.ReadFile(filepath.Join(".github", "workflows", wf))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			_, cmd, ok := strings.Cut(line, "go test")
			if !ok {
				continue
			}
			dir := "."
			if strings.Contains(line, "cd perfbench") {
				dir = "perfbench"
			}
			var pkgs []string
			patterns := map[string]string{}
			fields := strings.Fields(cmd)
			for i := 0; i < len(fields); i++ {
				flag, val, hasVal := strings.Cut(fields[i], "=")
				if _, ok := kinds[flag]; ok {
					if !hasVal && i+1 < len(fields) {
						i++
						val = fields[i]
					}
					patterns[flag] = strings.Trim(val, `'"`)
				} else if strings.HasPrefix(fields[i], ".") {
					pkgs = append(pkgs, fields[i])
				}
			}
			if len(patterns) == 0 {
				continue
			}
			funcs := testFuncs(t, dir, pkgs)
			for flag, pattern := range patterns {
				if flag == "-run" && pattern == "NONE" {
					continue // the idiom for running no tests beside -bench or -fuzz
				}
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(strings.Split(alt, "/")[0])
					if err != nil {
						t.Fatalf("%s:%d: %s %q: %v", wf, n+1, flag, alt, err)
					}
					if !anyMatch(re, funcs[kinds[flag]]) {
						t.Errorf("%s:%d: %s alternative %q matches no %s function in %v", wf, n+1, flag, alt, kinds[flag], pkgs)
					}
				}
			}
		}
	}
}

// testFuncs returns the names of the top-level test, benchmark, fuzz and
// example functions in the packages pkgs names (relative to dir, with
// ./... for every package below it in the same module), keyed by the kinds
// of function each flag selects: "Test|Example|Fuzz" for -run, "Benchmark"
// for -bench and "Fuzz" for -fuzz.
func testFuncs(t *testing.T, dir string, pkgs []string) map[string][]string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((Test|Benchmark|Fuzz|Example)\w*)\(`)
	out := map[string][]string{}
	scan := func(d string) {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				switch m[2] {
				case "Benchmark":
					out["Benchmark"] = append(out["Benchmark"], m[1])
				case "Fuzz":
					out["Fuzz"] = append(out["Fuzz"], m[1])
					fallthrough
				default:
					out["Test|Example|Fuzz"] = append(out["Test|Example|Fuzz"], m[1])
				}
			}
		}
	}
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		root = filepath.Join(dir, root)
		if !recursive {
			scan(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
			}
			scan(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
