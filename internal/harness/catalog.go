package harness

import (
	"fmt"

	"repro/internal/stats"
)

// Experiment is one named entry of the experiment catalog: a paper
// artifact (table or figure) and the builder that renders it.
type Experiment struct {
	Name string
	Run  func() (*stats.Table, error)
}

// Catalog returns the paper's experiment set in canonical order —
// every artifact figbench can render without extra input. The custom
// experiment is not included: it needs user-supplied workloads, so the
// CLIs append it themselves. The distributed dispatch protocol names
// experiments by these strings, so coordinator and workers resolve the
// same names to the same builders.
func (r *Runner) Catalog() []Experiment {
	return []Experiment{
		{"table1", func() (*stats.Table, error) { return r.Table1(), nil }},
		{"table2", r.Table2},
		{"fig5", r.Fig5},
		{"fig7", r.Fig7},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
		{"fig11", r.Fig11},
		{"fig12", r.Fig12},
		{"fig13", r.Fig13},
		{"fig14", r.Fig14},
		{"fig15", r.Fig15},
		{"sec42", func() (*stats.Table, error) { return r.Sec42(), nil }},
		{"sec83", r.Sec83},
		{"multithreaded", r.Multithreaded},
		{"ablation", r.Ablations},
	}
}

// SelectExperiments resolves experiment names to their builders, in
// catalog order and deduplicated, so any permutation of the same name
// set selects the identical builder sequence (and therefore enumerates
// the identical job matrix). The
// returned names are the canonical form of the selection. Unknown names
// are an error listing the catalog — a coordinator and a worker built
// from different binaries must fail loudly, not diverge silently.
func (r *Runner) SelectExperiments(names []string) ([]string, []func() (*stats.Table, error), error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var canonical []string
	var out []func() (*stats.Table, error)
	for _, e := range r.Catalog() {
		if want[e.Name] {
			canonical = append(canonical, e.Name)
			out = append(out, e.Run)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		// Deterministic report: names in catalog order are gone, so only
		// unknown ones remain; list them in the caller's order.
		for _, n := range names {
			if want[n] {
				return nil, nil, fmt.Errorf("harness: unknown experiment %q (catalog: %s)", n, catalogNames(r))
			}
		}
	}
	return canonical, out, nil
}

// catalogNames renders the catalog's names for error messages.
func catalogNames(r *Runner) string {
	s := ""
	for i, e := range r.Catalog() {
		if i > 0 {
			s += " "
		}
		s += e.Name
	}
	return s
}
