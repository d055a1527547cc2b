package negativa

import (
	"sort"
	"strings"
)

// MergeProfiles computes the union profile of one or more detection
// profiles over the same install: per library, the union of used kernels
// and used CPU functions. Debloating against the union keeps every symbol
// any member workload needs, so one compacted install safely serves the
// whole workload set — the batch service's multi-workload mode. The union
// covers every member by construction (union_test.go checks it), and the
// union of one profile is that profile's lists, which is what lets Debloat
// run as a one-member batch. Nil profiles are skipped.
//
// The union's RunResult is nil: it aggregates several runs and has no
// single output digest, so callers verify the union-debloated install
// against each member workload's own profiled digest instead.
func MergeProfiles(profiles ...*Profile) *Profile {
	var names []string
	kernels := map[string]map[string]bool{}
	funcs := map[string]map[string]bool{}
	for _, p := range profiles {
		if p == nil {
			continue
		}
		names = append(names, p.Workload)
		accumulate(kernels, p.UsedKernels)
		accumulate(funcs, p.UsedFuncs)
	}
	return &Profile{
		Workload:    strings.Join(names, "+"),
		UsedKernels: flatten(kernels),
		UsedFuncs:   flatten(funcs),
	}
}

func accumulate(dst map[string]map[string]bool, src map[string][]string) {
	for lib, syms := range src {
		set := dst[lib]
		if set == nil {
			set = map[string]bool{}
			dst[lib] = set
		}
		for _, s := range syms {
			set[s] = true
		}
	}
}

func flatten(src map[string]map[string]bool) map[string][]string {
	out := make(map[string][]string, len(src))
	for lib, set := range src {
		names := make([]string, 0, len(set))
		for s := range set {
			names = append(names, s)
		}
		sort.Strings(names)
		out[lib] = names
	}
	return out
}
