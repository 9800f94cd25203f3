package lint

import (
	"go/token"
	"path/filepath"
	"testing"
)

func bf(file string, line int, analyzer, message string) Finding {
	return Finding{
		Pos:      token.Position{Filename: file, Line: line},
		Analyzer: analyzer,
		Message:  message,
	}
}

// TestRelativizeFindings rewrites in-module absolute paths and leaves
// foreign ones alone.
func TestRelativizeFindings(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("home", "dev", "mod")
	fs := []Finding{
		bf(filepath.Join(root, "pkg", "a.go"), 1, "lockhold", "m"),
		bf(string(filepath.Separator)+filepath.Join("usr", "lib", "other.go"), 2, "lockhold", "m"),
	}
	RelativizeFindings(fs, root)
	if want := filepath.Join("pkg", "a.go"); fs[0].Pos.Filename != want {
		t.Errorf("relativized path = %q, want %q", fs[0].Pos.Filename, want)
	}
	if want := string(filepath.Separator) + filepath.Join("usr", "lib", "other.go"); fs[1].Pos.Filename != want {
		t.Errorf("foreign path = %q, want %q (untouched)", fs[1].Pos.Filename, want)
	}
}
