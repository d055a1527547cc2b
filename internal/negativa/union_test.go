package negativa

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/plan"
)

func profileOf(name string, kernels, funcs map[string][]string) *Profile {
	return &Profile{Workload: name, UsedKernels: kernels, UsedFuncs: funcs}
}

// Covers reports whether profile u retains at least everything profile p
// uses — the safety condition for serving p from an install debloated
// against u. MergeProfiles meets it by construction, so it is checked here
// rather than on every batch.
func (u *Profile) Covers(p *Profile) bool {
	return covers(u.UsedKernels, p.UsedKernels) && covers(u.UsedFuncs, p.UsedFuncs)
}

func covers(super, sub map[string][]string) bool {
	for lib, syms := range sub {
		have := map[string]bool{}
		for _, s := range super[lib] {
			have[s] = true
		}
		for _, s := range syms {
			if !have[s] {
				return false
			}
		}
	}
	return true
}

// randomUsage draws a used-symbol map in DetectUsage's canonical form: a
// random subset of libs, each with a sorted, duplicate-free, non-empty list
// drawn from a small universe so that members overlap.
func randomUsage(rng *rand.Rand, libs []string, prefix string) map[string][]string {
	out := map[string][]string{}
	for _, lib := range libs {
		if rng.Intn(3) == 0 {
			continue
		}
		set := map[string]bool{}
		for n := 1 + rng.Intn(12); n > 0; n-- {
			set[fmt.Sprintf("%s%02d", prefix, rng.Intn(24))] = true
		}
		syms := make([]string, 0, len(set))
		for s := range set {
			syms = append(syms, s)
		}
		slices.Sort(syms)
		out[lib] = syms
	}
	return out
}

// mangled returns p with every list shuffled and some of its symbols
// repeated: the same sets, no longer in canonical form.
func mangled(rng *rand.Rand, p *Profile) *Profile {
	mangle := func(usage map[string][]string) map[string][]string {
		out := map[string][]string{}
		for lib, syms := range usage {
			l := slices.Clone(syms)
			for n := rng.Intn(3); n > 0; n-- {
				l = append(l, syms[rng.Intn(len(syms))])
			}
			rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
			out[lib] = l
		}
		return out
	}
	return profileOf(p.Workload, mangle(p.UsedKernels), mangle(p.UsedFuncs))
}

// agree gives, for a random half of libs, every member that uses the
// library a list equal to the first such member's: a copy, or the same
// slice.
func agree(rng *rand.Rand, members []*Profile, libs []string) {
	for _, lib := range libs {
		if rng.Intn(2) == 0 {
			continue
		}
		for _, usage := range []func(*Profile) map[string][]string{
			func(p *Profile) map[string][]string { return p.UsedKernels },
			func(p *Profile) map[string][]string { return p.UsedFuncs },
		} {
			var first []string
			for _, p := range members {
				syms, ok := usage(p)[lib]
				switch {
				case !ok:
				case first == nil:
					first = syms
				case rng.Intn(2) == 0:
					usage(p)[lib] = first
				default:
					usage(p)[lib] = slices.Clone(first)
				}
			}
		}
	}
}

// kWayMerge is the union as a k-way merge of every member's lists per
// library, with no shortcut for lists the members agree on.
func kWayMerge(members []*Profile, usage func(*Profile) map[string][]string) map[string][]string {
	lists := map[string][][]string{}
	var order []string
	for _, p := range members {
		for lib, syms := range usage(p) {
			if lists[lib] == nil {
				order = append(order, lib)
			}
			lists[lib] = append(lists[lib], canonical(syms))
		}
	}
	out := map[string][]string{}
	for _, lib := range order {
		out[lib] = mergeSorted(nil, lists[lib])
	}
	return out
}

// setUnion is the union the merge must produce, computed the slow way: a
// set per library, flattened and sorted.
func setUnion(members []*Profile, usage func(*Profile) map[string][]string) map[string][]string {
	sets := map[string]map[string]bool{}
	for _, p := range members {
		for lib, syms := range usage(p) {
			if sets[lib] == nil {
				sets[lib] = map[string]bool{}
			}
			for _, s := range syms {
				sets[lib][s] = true
			}
		}
	}
	out := map[string][]string{}
	for lib, set := range sets {
		for s := range set {
			out[lib] = append(out[lib], s)
		}
		slices.Sort(out[lib])
	}
	return out
}

// TestMergeProfilesProperties: over random profiles of random libraries, the
// union is the per-library set union, covers every member, does not depend
// on the members' order, and the union of one profile is that profile's own
// lists — which is what lets Debloat run as a one-member batch and still
// match the monolith. Shuffling a member's lists or repeating symbols in
// them changes neither the union nor the compact keys derived from it. In
// half the trials the members agree on some libraries' lists and differ on
// others; either way the union is the k-way merge's result, and a merged
// list holds no room beyond its own length.
func TestMergeProfilesProperties(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 8})
	if err != nil {
		t.Fatal(err)
	}
	archs := DeviceArchs([]gpuarch.Device{gpuarch.T4, gpuarch.A100})
	compactKeys := func(u *Profile) []plan.Key {
		var keys []plan.Key
		for _, name := range in.LibNames {
			keys = append(keys, CompactKey(LocateKey(in.Library(name), u.UsedFuncs[name], u.UsedKernels[name], archs)))
		}
		return keys
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		libs := make([]string, 1+rng.Intn(6))
		for i := range libs {
			libs[i] = in.LibNames[rng.Intn(8)]
		}
		members := make([]*Profile, 1+rng.Intn(5))
		for i := range members {
			members[i] = profileOf(fmt.Sprintf("w%d", i), randomUsage(rng, libs, "k"), randomUsage(rng, libs, "f"))
		}
		if trial%2 == 1 {
			agree(rng, members, libs)
		}
		u := MergeProfiles(members...)
		kernels := func(p *Profile) map[string][]string { return p.UsedKernels }
		funcs := func(p *Profile) map[string][]string { return p.UsedFuncs }
		if !reflect.DeepEqual(u.UsedKernels, setUnion(members, kernels)) || !reflect.DeepEqual(u.UsedFuncs, setUnion(members, funcs)) {
			t.Fatalf("trial %d: the union is not the per-library set union", trial)
		}
		if !reflect.DeepEqual(u.UsedKernels, kWayMerge(members, kernels)) || !reflect.DeepEqual(u.UsedFuncs, kWayMerge(members, funcs)) {
			t.Fatalf("trial %d: the union is not the k-way merge's result", trial)
		}
		held := map[*string]bool{}
		for _, p := range members {
			for _, usage := range []map[string][]string{p.UsedKernels, p.UsedFuncs} {
				for _, syms := range usage {
					held[&syms[0]] = true
				}
			}
		}
		for _, usage := range []map[string][]string{u.UsedKernels, u.UsedFuncs} {
			for lib, syms := range usage {
				if !held[&syms[0]] && cap(syms) != len(syms) {
					t.Fatalf("trial %d: %s's union list holds %d names in room for %d", trial, lib, len(syms), cap(syms))
				}
			}
		}
		for _, p := range members {
			if !u.Covers(p) {
				t.Fatalf("trial %d: the union does not cover %s", trial, p.Workload)
			}
		}
		shuffled := slices.Clone(members)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if v := MergeProfiles(shuffled...); !reflect.DeepEqual(u.UsedKernels, v.UsedKernels) || !reflect.DeepEqual(u.UsedFuncs, v.UsedFuncs) {
			t.Fatalf("trial %d: the union depends on the members' order", trial)
		}
		one := members[0]
		if v := MergeProfiles(one); !reflect.DeepEqual(v.UsedKernels, one.UsedKernels) || !reflect.DeepEqual(v.UsedFuncs, one.UsedFuncs) {
			t.Fatalf("trial %d: the union of one profile differs from its lists", trial)
		}
		noisy := slices.Clone(members)
		j := rng.Intn(len(noisy))
		noisy[j] = mangled(rng, noisy[j])
		v := MergeProfiles(noisy...)
		if !reflect.DeepEqual(u.UsedKernels, v.UsedKernels) || !reflect.DeepEqual(u.UsedFuncs, v.UsedFuncs) {
			t.Fatalf("trial %d: shuffling or repeating member %d's symbols changed the union", trial, j)
		}
		if !slices.Equal(compactKeys(u), compactKeys(v)) {
			t.Fatalf("trial %d: shuffling or repeating member %d's symbols changed a compact key", trial, j)
		}
	}
}

func TestMergeProfilesDisjoint(t *testing.T) {
	a := profileOf("a",
		map[string][]string{"libx.so": {"k1", "k2"}},
		map[string][]string{"libx.so": {"f1"}})
	b := profileOf("b",
		map[string][]string{"liby.so": {"k3"}},
		map[string][]string{"liby.so": {"f2", "f3"}})

	u := MergeProfiles(a, b)
	if u.Workload != "a+b" {
		t.Errorf("union workload = %q, want a+b", u.Workload)
	}
	if u.RunResult != nil {
		t.Error("union RunResult must be nil")
	}
	wantK := map[string][]string{"libx.so": {"k1", "k2"}, "liby.so": {"k3"}}
	if !reflect.DeepEqual(u.UsedKernels, wantK) {
		t.Errorf("union kernels = %v, want %v", u.UsedKernels, wantK)
	}
	wantF := map[string][]string{"libx.so": {"f1"}, "liby.so": {"f2", "f3"}}
	if !reflect.DeepEqual(u.UsedFuncs, wantF) {
		t.Errorf("union funcs = %v, want %v", u.UsedFuncs, wantF)
	}
}

func TestMergeProfilesOverlapping(t *testing.T) {
	a := profileOf("a",
		map[string][]string{"libx.so": {"k2", "k1"}},
		map[string][]string{"libx.so": {"f1", "f2"}})
	b := profileOf("b",
		map[string][]string{"libx.so": {"k2", "k3"}},
		map[string][]string{"libx.so": {"f2"}})

	u := MergeProfiles(a, b)
	wantK := map[string][]string{"libx.so": {"k1", "k2", "k3"}}
	if !reflect.DeepEqual(u.UsedKernels, wantK) {
		t.Errorf("union kernels = %v, want %v (sorted, deduped)", u.UsedKernels, wantK)
	}
	wantF := map[string][]string{"libx.so": {"f1", "f2"}}
	if !reflect.DeepEqual(u.UsedFuncs, wantF) {
		t.Errorf("union funcs = %v, want %v", u.UsedFuncs, wantF)
	}
	if !u.Covers(a) || !u.Covers(b) {
		t.Error("union must cover every member")
	}
}

func TestMergeProfilesSuperset(t *testing.T) {
	small := profileOf("small",
		map[string][]string{"libx.so": {"k1"}},
		map[string][]string{"libx.so": {"f1"}})
	big := profileOf("big",
		map[string][]string{"libx.so": {"k1", "k2", "k3"}, "liby.so": {"k9"}},
		map[string][]string{"libx.so": {"f1", "f2"}})

	u := MergeProfiles(small, big)
	if !reflect.DeepEqual(u.UsedKernels, big.UsedKernels) {
		t.Errorf("union of subset+superset kernels = %v, want the superset %v", u.UsedKernels, big.UsedKernels)
	}
	if !reflect.DeepEqual(u.UsedFuncs, big.UsedFuncs) {
		t.Errorf("union of subset+superset funcs = %v, want the superset %v", u.UsedFuncs, big.UsedFuncs)
	}
	if !big.Covers(small) {
		t.Error("superset must cover subset")
	}
	if small.Covers(big) {
		t.Error("subset must not cover superset")
	}
}

func TestMergeProfilesSkipsNil(t *testing.T) {
	a := profileOf("a", map[string][]string{"libx.so": {"k1"}}, nil)
	u := MergeProfiles(nil, a, nil)
	if u.Workload != "a" {
		t.Errorf("workload = %q, want a", u.Workload)
	}
	if len(u.UsedKernels["libx.so"]) != 1 {
		t.Errorf("kernels = %v", u.UsedKernels)
	}
}
