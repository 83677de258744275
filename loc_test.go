package kali

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// nonTestGoCeiling is the committed count of non-test Go lines: every
// line of every .go file that is not a _test.go file, outside
// benchmark/, .bench_build/ and dot-directories.  A change that adds
// code raises it in its own diff, with the rows that paid for it; one
// that deletes code lowers it.
const nonTestGoCeiling = 19408

// TestNonTestGoCeiling holds the non-test Go line count at or under
// nonTestGoCeiling, and no more than 50 lines under it, so that a
// deletion lowers the ceiling in the same change.
func TestNonTestGoCeiling(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(src, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case lines > nonTestGoCeiling:
		t.Errorf("non-test Go is %d lines, over the ceiling of %d: delete code, or raise nonTestGoCeiling in loc_test.go to %d and say in the change what the %d lines bought",
			lines, nonTestGoCeiling, lines, lines-nonTestGoCeiling)
	case lines < nonTestGoCeiling-50:
		t.Errorf("non-test Go is %d lines, more than 50 under the ceiling of %d: lower nonTestGoCeiling in loc_test.go to %d",
			lines, nonTestGoCeiling, lines)
	}
	t.Logf("non-test Go: %d lines (ceiling %d)", lines, nonTestGoCeiling)
}

// TestEveryMainHasATest: every directory holding a main package, outside
// benchmark/ (its own module) and dot-directories, also holds a _test.go
// file, so go test runs each command and example program.
func TestEveryMainHasATest(t *testing.T) {
	mains := 0
	for _, dir := range packageDirs(t) {
		if dir == "benchmark" || strings.HasPrefix(dir, "benchmark"+string(filepath.Separator)) {
			continue
		}
		if name, _ := packageClause(t, dir); name != "main" {
			continue
		}
		mains++
		if tests, _ := filepath.Glob(filepath.Join(dir, "*_test.go")); len(tests) == 0 {
			t.Errorf("%s: package main has no _test.go file: test it, or delete it", dir)
		}
	}
	if mains == 0 {
		t.Fatal("found no main package: the check is vacuous")
	}
}
