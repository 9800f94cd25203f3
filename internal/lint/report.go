package lint

import (
	"path/filepath"
	"strings"
)

// RelativizeFindings rewrites absolute finding paths relative to root (the
// module directory) so the printed report is machine-independent. Paths
// outside root are left untouched.
func RelativizeFindings(findings []Finding, root string) {
	for i := range findings {
		rel, err := filepath.Rel(root, findings[i].Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		findings[i].Pos.Filename = rel
	}
}
