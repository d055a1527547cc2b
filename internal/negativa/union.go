package negativa

import (
	"slices"
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
	var kernels, funcs []map[string][]string
	for _, p := range profiles {
		if p == nil {
			continue
		}
		names = append(names, p.Workload)
		kernels = append(kernels, p.UsedKernels)
		funcs = append(funcs, p.UsedFuncs)
	}
	return &Profile{
		Workload:    strings.Join(names, "+"),
		UsedKernels: mergeUsage(kernels),
		UsedFuncs:   mergeUsage(funcs),
	}
}

// mergeUsage is the per-library union of several used-symbol maps. A
// member's lists arrive sorted (DetectUsage and KernelDetector.AllUsed sort
// them, and sorted is their canonical form), so each library's union is one
// k-way merge that drops duplicates as it goes. A list that is not strictly
// ascending — a profile from a peer or a replay that broke the form — is
// sorted on a copy first. A library only one member uses, or whose list
// every member agrees on, keeps that member's slice: profiles are immutable
// once built. A merged list is made in scratch shared across libraries and
// kept at its own length, since a memoized union outlives its batch.
func mergeUsage(members []map[string][]string) map[string][]string {
	size := 0
	for _, m := range members {
		size = max(size, len(m))
	}
	out := make(map[string][]string, size)
	var lists [][]string
	var scratch []string
	for i, m := range members {
		for lib, syms := range m {
			if _, done := out[lib]; done {
				continue
			}
			// No member before i uses lib, or it would be merged already.
			lists = append(lists[:0], canonical(syms))
			agree := true
			for _, later := range members[i+1:] {
				if s, ok := later[lib]; ok {
					s = canonical(s)
					agree = agree && slices.Equal(s, lists[0])
					lists = append(lists, s)
				}
			}
			if agree {
				out[lib] = lists[0]
				continue
			}
			scratch = mergeSorted(scratch, lists)
			out[lib] = append(make([]string, 0, len(scratch)), scratch...)
		}
	}
	return out
}

// canonical returns syms when it is strictly ascending, else a sorted,
// duplicate-free copy.
func canonical(syms []string) []string {
	for i := 1; i < len(syms); i++ {
		if syms[i-1] >= syms[i] {
			c := slices.Clone(syms)
			slices.Sort(c)
			return slices.Compact(c)
		}
	}
	return syms
}

// mergeSorted merges strictly ascending lists into one strictly ascending
// list in buf's storage. The lists are few (one per member), so each step
// scans their heads for the least instead of keeping a heap, and takes it
// off every list it heads. It consumes lists.
func mergeSorted(buf []string, lists [][]string) []string {
	out := buf[:0]
	for {
		least := -1
		for j, l := range lists {
			if len(l) > 0 && (least < 0 || l[0] < lists[least][0]) {
				least = j
			}
		}
		if least < 0 {
			return out
		}
		s := lists[least][0]
		out = append(out, s)
		for j, l := range lists {
			if len(l) > 0 && l[0] == s {
				lists[j] = l[1:]
			}
		}
	}
}
