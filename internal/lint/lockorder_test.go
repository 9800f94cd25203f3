package lint

import (
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestLockOrderTableMatchesLiveTree holds DESIGN.md §5c's lock-ordering
// table to the acquisition order lockorder finds on the live tree: every
// edge of the module's lock graph must be a row, and every row an edge.
func TestLockOrderTableMatchesLiveTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module load in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(design)
	start := strings.Index(doc, "**Lock-ordering discipline.**")
	if start < 0 {
		t.Fatal("DESIGN.md has no lock-ordering table")
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` +\\| `([^`]+)` +\\|")
	var table []string
	for _, line := range strings.SplitAfter(doc[start:], "\n")[1:] {
		if strings.TrimSpace(line) == "" && len(table) > 0 {
			break
		}
		if m := row.FindStringSubmatch(line); m != nil {
			table = append(table, m[1]+" → "+m[2])
		}
	}

	passes, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m := NewModule(passes)
	m.Run()
	var live []string
	for k := range lockEdges(m) {
		live = append(live, k.from+" → "+k.to)
	}
	sort.Strings(table)
	sort.Strings(live)
	if strings.Join(table, "\n") != strings.Join(live, "\n") {
		t.Fatalf("DESIGN.md §5c lock-ordering table:\n\t%s\nlockorder's edges on the live tree:\n\t%s",
			strings.Join(table, "\n\t"), strings.Join(live, "\n\t"))
	}
}
