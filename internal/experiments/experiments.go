// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 1, Figs. 4–11. Each experiment returns structured
// rows and can print them in the paper's layout; cmd/xt-experiments and the
// repository-root benchmarks drive these entry points.
//
// Scaling: the paper's testbed is a 72-core Xeon + V100 on 1 GbE running a
// Python data plane. Runs here compress time by Settings.Scale (default
// 10×): the simulated NIC, RPC overheads, and the emulated serialization
// plane all scale together, so ratios — who wins, by what factor, where
// crossovers fall — are preserved while a full figure regenerates in
// seconds to minutes on one core. EXPERIMENTS.md records paper-reported vs
// measured values per experiment.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"xingtian/internal/netsim"
)

// Settings are the shared scaling knobs.
type Settings struct {
	// Scale compresses all simulated time by this factor (default 10).
	Scale float64
	// PlaneNsPerKB is the emulated serialization-plane cost at the chosen
	// scale. The paper's plane moves ≈71 MB/s (14.4 µs/KB); at Scale 10 the
	// default is 1440 ns/KB.
	PlaneNsPerKB int
	// Quick shrinks sweeps for use inside unit tests.
	Quick bool
	// Explorers overrides experiment-specific explorer counts when > 0.
	Explorers int
	// ChannelHealth prints a per-broker channel-health summary (drops,
	// leak check, delivery latency) after each XingTian throughput run.
	ChannelHealth bool
}

// DefaultSettings returns the standard 10×-compressed configuration. No
// program calls it; the root bench_test.go and experiments_test.go build
// their settings from it.
func DefaultSettings() Settings {
	return Settings{Scale: 10, PlaneNsPerKB: 1440}
}

func (s Settings) normalized() Settings {
	if s.Scale < 1 {
		s.Scale = 1
	}
	if s.PlaneNsPerKB < 0 {
		s.PlaneNsPerKB = 0
	}
	return s
}

// Net returns the paper's 1 GbE network at the configured time scale.
func (s Settings) Net() netsim.Config {
	return netsim.Config{
		Bandwidth: netsim.DefaultBandwidth,
		Latency:   netsim.DefaultLatency,
		TimeScale: s.Scale,
	}
}

// Table rendering --------------------------------------------------------------

// Row is one printable result row.
type Row struct {
	Label  string
	Values []string
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("row")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Values) && len(r.Values[i]) > widths[i+1] {
				widths[i+1] = len(r.Values[i])
			}
		}
	}
	header := make([]string, 0, len(t.Columns)+1)
	header = append(header, pad("", widths[0]))
	for i, c := range t.Columns {
		header = append(header, pad(c, widths[i+1]))
	}
	fmt.Fprintln(w, strings.Join(header, "  "))
	for _, r := range t.Rows {
		cells := make([]string, 0, len(r.Values)+1)
		cells = append(cells, pad(r.Label, widths[0]))
		for i, v := range r.Values {
			cells = append(cells, pad(v, widths[i+1]))
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner executes a named experiment and writes its tables to w.
type Runner func(s Settings, w io.Writer) error

// Registry maps experiment IDs (table1, fig4 … fig11, ablations) to
// runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":      RunTable1,
		"fig4":        RunFig4,
		"fig5":        RunFig5,
		"fig6":        RunFig6,
		"fig7":        RunFig7,
		"fig8":        RunFig8,
		"fig9":        RunFig9,
		"fig10":       RunFig10,
		"fig11":       RunFig11,
		"ablations":   RunAblations,
		"weightplane": RunWeightPlane,
	}
}

// Names returns the registry keys in canonical order.
func Names() []string {
	return []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablations", "weightplane"}
}
