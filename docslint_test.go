package kali

// Documentation lint, run by CI alongside the unit tests: the godoc
// audit (every internal package must carry a package comment citing
// the paper section it implements) and a link checker over the
// markdown docs, so README/docs references cannot rot silently.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// packageDirs returns every directory under root (and root itself)
// containing non-test .go files.
func packageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Never skip the walk root itself: its name is ".", which the
			// dot-directory filter would otherwise match and abort on.
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// packageClause returns the package name of the non-test files in dir
// and their package comment (godoc uses one file's doc; we accept the
// first non-empty one).
func packageClause(t *testing.T, dir string) (name, doc string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		name = f.Name.Name
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return name, f.Doc.Text()
		}
	}
	return name, ""
}

// TestPackageDocsCitePaper: every package has a package comment, and
// every internal package's comment cites the paper (a section sign, a
// figure, or the word "paper") — the map a re-anchor reviewer needs.
func TestPackageDocsCitePaper(t *testing.T) {
	cites := regexp.MustCompile(`§|Figure|Fig\.|paper`)
	dirs := packageDirs(t)
	// Guard against the walk silently finding nothing (root package +
	// internal + cmd should be well past this floor).
	if len(dirs) < 15 {
		t.Fatalf("package walk found only %d directories (%v) — lint would be vacuous", len(dirs), dirs)
	}
	for _, dir := range dirs {
		_, doc := packageClause(t, dir)
		if doc == "" {
			t.Errorf("%s: no package comment", dir)
			continue
		}
		if strings.HasPrefix(dir, "internal") && !cites.MatchString(doc) {
			t.Errorf("%s: package comment does not cite the paper (want §N, Figure N, or 'paper')", dir)
		}
	}
}

// mdLink matches markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks: every relative link in README.md and docs/*.md
// resolves to an existing file or directory.
func TestMarkdownLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 3 {
		t.Fatalf("expected README.md plus at least two docs/*.md files, found %v", files)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
		}
	}
}

// mdName matches a markdown file name, with or without a path.
var mdName = regexp.MustCompile(`[\w./-]+\.md\b`)

// TestGoCommentsCiteExistingDocs: every *.md file a Go comment names
// exists, either beside the file that names it or from the repo root,
// so a comment cannot send its reader to a document that is not there.
func TestGoCommentsCiteExistingDocs(t *testing.T) {
	fset := token.NewFileSet()
	cited := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdName.FindAllString(c.Text, -1) {
					cited++
					_, errHere := os.Stat(filepath.Join(filepath.Dir(path), name))
					if _, errRoot := os.Stat(name); errHere != nil && errRoot != nil {
						t.Errorf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no Go comment names a .md file: the check is vacuous")
	}
}
