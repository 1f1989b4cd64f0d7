package dispatch

import (
	"repro/internal/harness"
	"repro/internal/sim"
)

// BuildSpec enumerates the named experiments' job matrix at the runner's
// scale (plan-only; nothing is simulated) and returns the dispatch Spec
// describing it and the canonical job list. Coordinator side of the
// matrix-agreement handshake; workers rebuild the same thing from the
// Spec and compare.
func BuildSpec(r *harness.Runner, names []string) (Spec, []sim.Config, error) {
	names, builders, err := r.SelectExperiments(names)
	if err != nil {
		return Spec{}, nil, err
	}
	jobs, err := r.EnumerateJobs(builders...)
	if err != nil {
		return Spec{}, nil, err
	}
	fps := make([]string, len(jobs))
	for i, cfg := range jobs {
		fps[i] = cfg.Fingerprint().String()
	}
	scale := r.Scale()
	spec := Spec{
		Format:       SpecFormatVersion,
		Engine:       sim.EngineVersion,
		Insts:        scale.Insts,
		Apps:         scale.SingleApps,
		Mixes:        scale.MixesPerCategory,
		MC:           scale.MCIterations,
		Experiments:  names,
		Fingerprints: fps,
	}
	return spec, jobs, nil
}
