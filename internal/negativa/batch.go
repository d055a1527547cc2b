package negativa

import (
	"fmt"
	"time"

	"negativaml/internal/bufpool"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/plan"
)

// Batch is one union debloat of an install against a workload set, and the
// one stage graph of the repository: Debloat runs it for a single member,
// the batch service (internal/dserve) for many. For M members over N
// libraries Run builds
//
//	[prefetch] → detect(w1) … detect(wM) → union → [prefetch] →
//	compact(lib1) … compact(libN) → verifyprobe → clone chunks → clone →
//	verifyrun(w) per verified member (∥ verifyref(w) when capped apart)
//
// where the bracketed nodes exist only with a Prefetch hook, and the
// verification tail only when some member verifies. NewBatch derives what
// the keys need; the caller sets the exported fields before Run. The hooks
// are how a serving plane passes its tiers in; all three are nil on a solo
// node.
type Batch struct {
	in        *mlframework.Install
	workloads []mlruntime.Workload
	maxSteps  int
	// Fingerprint is the install's InstallFingerprint and IDs[i] member i's
	// WorkloadIdentity at the step cap, derived once by NewBatch.
	Fingerprint string
	IDs         []string

	// VerifySteps, when non-zero and different from the step cap, caps the
	// verification runs apart from detection; each verified member then
	// also gets a capped reference run (verifyref) to compare against
	// instead of its profiled run.
	VerifySteps int
	// Verify, parallel to the workloads, marks the members this batch
	// verifies.
	Verify []bool

	// Prefetch is handed each level's keys before the level's nodes consult
	// the memo: the detect keys; the compact keys, with each library's
	// *elfx.Library as its hint; and, only when every compact hit, the
	// verifyrun keys. slot is the pool itself, of which the calling node
	// holds a slot, not the runner's slot a memo is handed: yielding it frees
	// the slot but hands off no runner, and needs none, because each of the
	// three calls runs in a node that is the only ready node of its graph
	// (the first prefetch before the detects, the second before the
	// compacts, the third inside the verify probe; verifyref nodes, ready
	// from the start, exist only when VerifySteps is set, and Debloat, the
	// one caller that sets it, sets no hooks). hints is nil where a level has
	// none.
	Prefetch func(slot plan.Executor, keys []plan.Key, hints []any)
	// ProbeVerify looks a verifyrun key up before the batch decides whether
	// to build the verify clone: true means the memo Run is handed answers
	// the key, so its member needs no clone. When every key is reported
	// found no clone is built, and a memo that then computes one of them
	// fails the batch. Nil builds the clone whenever a member verifies.
	ProbeVerify func(plan.Key) bool
}

// NewBatch returns a batch of workloads over in, every one of which must
// reference in as its install, with its fingerprint and identities derived.
// maxSteps caps detection (0 = full dataset) and, unless VerifySteps says
// otherwise, verification.
func NewBatch(in *mlframework.Install, workloads []mlruntime.Workload, maxSteps int) *Batch {
	b := &Batch{in: in, workloads: workloads, maxSteps: maxSteps, Fingerprint: InstallFingerprint(in), IDs: make([]string, len(workloads))}
	for i := range workloads {
		b.IDs[i] = WorkloadIdentity(workloads[i], maxSteps)
	}
	return b
}

// BatchRun is an executed batch: read its outcome through the accessors,
// which look at the graph's nodes and copy nothing.
type BatchRun struct {
	b        *Batch
	detects  []*plan.Node
	union    *plan.Node
	compacts []*plan.Node
	probe    *plan.Node
	// refs is nil unless verification is capped apart from detection.
	refs     []*plan.Node
	verifies []*plan.Node
}

// Run builds the batch's graph and executes it on pool, consulting memo
// with every keyed node and reporting every finished node to obs (each may
// be nil). onPlanned, when non-nil, receives the graph's node count before
// any node runs. The verify clone is split into pool.Workers() chunks.
func (b *Batch) Run(pool *plan.Pool, memo plan.Memo, obs plan.Observer, onPlanned func(nodes int)) (*BatchRun, error) {
	in, ws, fp := b.in, b.workloads, b.Fingerprint
	names := in.LibNames
	// Architectures: the union of every member's device set, so elements
	// needed by any member survive Reason-I removal.
	var devs []gpuarch.Device
	for i := range ws {
		devs = append(devs, ws[i].Devices...)
	}
	archs := DeviceArchs(devs)
	steps := b.VerifySteps
	if steps == 0 {
		steps = b.maxSteps
	}

	g := plan.New()
	r := &BatchRun{b: b, detects: make([]*plan.Node, len(ws)), compacts: make([]*plan.Node, len(names)), verifies: make([]*plan.Node, len(ws))}

	// Detection: one node per member. A prefetch glue node, when hooked,
	// hands the tiers every detect key first.
	detectKeys := make([]plan.Key, len(ws))
	for i := range ws {
		detectKeys[i] = DetectKey(fp, b.IDs[i])
	}
	var detectDeps []*plan.Node
	if b.Prefetch != nil {
		detectDeps = []*plan.Node{g.Node("prefetch", nil, nil, func([]any) (any, error) {
			b.Prefetch(pool, detectKeys, nil)
			return nil, nil
		})}
	}
	for i := range ws {
		w := &ws[i]
		r.detects[i] = g.Node(StageDetect, detectDeps, plan.StaticKey(detectKeys[i]), func([]any) (any, error) {
			p, err := DetectUsage(*w, b.maxSteps)
			if err != nil {
				return nil, fmt.Errorf("negativa: detect %s: %w", w.Name, err)
			}
			return p, nil
		})
	}

	// Union: keyed by the members' detect keys, so a resubmitted batch
	// takes its merged profile, and the compact keys already derived from
	// it, from the memo instead of merging every member's symbol lists and
	// hashing them into keys again — on a warm batch those two are most of
	// the work left. It covers every member by construction.
	r.union = g.Node(StageUnion, r.detects, plan.StaticKey(UnionKey(detectKeys)), func(deps []any) (any, error) {
		ps := make([]*Profile, len(deps))
		for i := range deps {
			ps[i] = deps[i].(*Profile)
		}
		return newUnion(ps, len(names)), nil
	})

	// Compaction: one node per library, keyed late from the union. Compact
	// keys are derivable from the union alone, so a hooked prefetch node
	// hands them to the tiers before the compact nodes run; either side
	// derives a key at most once per union value (Union.compactKey), and
	// without the hook each compact node derives its own, in parallel.
	var after []*plan.Node
	if b.Prefetch != nil {
		after = []*plan.Node{g.Node("prefetch", []*plan.Node{r.union}, nil, func(deps []any) (any, error) {
			u := deps[0].(*Union)
			keys := make([]plan.Key, len(names))
			hints := make([]any, len(names))
			for i, name := range names {
				lib := in.Library(name)
				keys[i] = u.compactKey(i, name, lib, archs)
				hints[i] = lib
			}
			b.Prefetch(pool, keys, hints)
			return nil, nil
		})}
	}
	for i, name := range names {
		r.compacts[i] = compactNode(g, r.union, i, name, in.Library(name), archs, after...)
	}

	// Verification: the union-debloated install must reproduce every
	// verified member's reference digest. A verify run is a pure function of
	// (install, workload identity at the step cap, the debloated bytes), so
	// it is a memoised stage keyed by what the batch hands out: the probe
	// digests the range sets in the compact values themselves, derives each
	// member's key and asks the tiers once; the clone is built — in chunk
	// nodes inside the pool — only if some member went unanswered. The graph
	// is the same either way, so its node count is known before it runs.
	var fresh []int
	for i, v := range b.Verify {
		if v {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) > 0 {
		// Pooled scratch backing the clone's materialized libraries, one slot
		// per library so the chunk nodes fill it without sharing. Nothing
		// aliases it once Execute returns — verify values are scalar Results
		// — so it goes back to the pool on every exit path.
		bufs := make([][]byte, len(names))
		defer func() {
			for _, buf := range bufs {
				bufpool.Put(buf)
			}
		}()
		r.probe = g.Node("verifyprobe", r.compacts, nil, func(deps []any) (any, error) {
			images := make([]*SparseImage, len(deps))
			for i, d := range deps {
				images[i] = d.(*LibDebloat).Report.Sparse
			}
			set := DebloatedSetDigest(names, images)
			vp := &verifyProbe{keys: make([]plan.Key, len(fresh))}
			for j, i := range fresh {
				vp.keys[j] = VerifyRunKey(fp, b.IDs[i], steps, set)
			}
			// A record can exist only where the whole debloated set did. A
			// batch that had to compute part of the set itself is, short of
			// an eviction on every owner, the first to hold it: no replica
			// has a record to serve, so the round trip — which would sit on
			// the critical path just as the write-back of those computed
			// parts saturates the peers — is not made. Guessing wrong costs
			// the local run every batch used to pay.
			allHit := true
			for _, c := range r.compacts {
				allHit = allHit && c.Hit()
			}
			if b.Prefetch != nil && allHit {
				b.Prefetch(pool, vp.keys, nil)
			}
			for _, key := range vp.keys {
				found := b.ProbeVerify != nil && b.ProbeVerify(key)
				vp.needClone = vp.needClone || !found
			}
			return vp, nil
		})
		clone := verifyClone(g, in, r.probe, r.compacts, pool.Workers(), bufs)
		if steps != b.maxSteps {
			r.refs = make([]*plan.Node, len(ws))
		}
		for j, i := range fresh {
			w := &ws[i]
			if r.refs != nil {
				// The capped reference run has no dependencies: it enters
				// the pool immediately and overlaps the rest of the graph.
				r.refs[i] = g.Node(StageVerifyRef, nil, plan.StaticKey(VerifyRefKey(fp, WorkloadIdentity(*w, steps))), func([]any) (any, error) {
					ref, err := mlruntime.Run(*w, mlruntime.Options{MaxSteps: steps})
					if err != nil {
						return nil, fmt.Errorf("negativa: reference run %s: %w", w.Name, err)
					}
					return ref, nil
				})
			}
			r.verifies[i] = g.Node(StageVerifyRun, []*plan.Node{r.probe, clone}, func(deps []any) (plan.Key, error) {
				return deps[0].(*verifyProbe).keys[j], nil
			}, func(deps []any) (any, error) {
				if !deps[0].(*verifyProbe).needClone {
					return nil, fmt.Errorf("negativa: verify %s: the memo computes a record its probe reported found", w.Name)
				}
				vw := *w
				vw.Install = deps[1].(*mlframework.Install)
				vr, err := mlruntime.Run(vw, mlruntime.Options{MaxSteps: steps})
				if err != nil {
					return nil, fmt.Errorf("negativa: verify %s: %w", w.Name, err)
				}
				return vr, nil
			})
		}
	}

	if onPlanned != nil {
		onPlanned(g.Len())
	}
	if err := g.Execute(pool, memo, obs); err != nil {
		return nil, err
	}
	return r, nil
}

// Union returns the merged profile the libraries were debloated against.
func (r *BatchRun) Union() *Profile { return r.union.Value().(*Union).Profile }

// Profile returns member i's detection profile and whether the memo served
// it.
func (r *BatchRun) Profile(i int) (p *Profile, hit bool) {
	n := r.detects[i]
	return n.Value().(*Profile), n.Hit()
}

// Lib returns library i's report under its name in this install — a memo
// hit computed under another library's name (identical bytes elsewhere) is
// re-labelled on a shallow copy sharing the immutable sparse image — with
// the virtual locate+compact time it is worth, its compact key's hash, and
// whether the memo served it.
func (r *BatchRun) Lib(i int) (rep *LibraryReport, analysis time.Duration, key string, hit bool) {
	n := r.compacts[i]
	ld := n.Value().(*LibDebloat)
	rep = ld.Report
	if name := r.b.in.LibNames[i]; rep.Name != name {
		relabeled := *rep
		relabeled.Name = name
		rep = &relabeled
	}
	return rep, ld.Analysis, n.ResolvedKey().Hash, n.Hit()
}

// Verify returns member i's verification run and whether it reproduced the
// member's reference digest (its capped reference run's, or else its
// profiled run's); nil and false for a member this batch did not verify.
func (r *BatchRun) Verify(i int) (*mlruntime.Result, bool) {
	n := r.verifies[i]
	if n == nil {
		return nil, false
	}
	vr := n.Value().(*mlruntime.Result)
	p, _ := r.Profile(i)
	want := p.RunResult.Digest
	if r.refs != nil {
		want = r.refs[i].Value().(*mlruntime.Result).Digest
	}
	return vr, vr.Digest == want
}

// Cloned reports whether the batch had to build its verify clone.
func (r *BatchRun) Cloned() bool {
	return r.probe != nil && r.probe.Value().(*verifyProbe).needClone
}

// verifyProbe is the verify-probe node's value: each verified member's
// verifyrun key, in member order, and whether any of them went unanswered,
// so a clone is needed at all.
type verifyProbe struct {
	keys      []plan.Key
	needClone bool
}

// verifyClone adds the verify clone to g: the install with every library
// replaced by its debloated image, which is the one value every verify run
// that misses waits on. probe is the verify-probe node; when it reports that
// every verified member is already answered the nodes below do nothing — no
// scratch, no materialize, no parse — and the join has no value.
// compacts are the compact nodes in in.LibNames order. The work is per
// library — materialize the sparse image into pooled scratch (kept in
// bufs[i] for the caller to recycle once the graph has run), then parse it —
// so it is split into about chunks "clone" nodes over contiguous runs of
// libraries, joined by one more "clone" node whose value is the
// *mlframework.Install. The runs hold about equal bytes, not equal counts:
// load order puts an install's few large framework libraries first and its
// many small dependencies last. All of the nodes are unmemoized glue inside
// g, scheduled and bounded like any other.
func verifyClone(g *plan.Graph, in *mlframework.Install, probe *plan.Node, compacts []*plan.Node, chunks int, bufs [][]byte) *plan.Node {
	names := in.LibNames
	libs := make([]*elfx.Library, len(names))
	var total int64
	for _, name := range names {
		total += in.Library(name).FileSize()
	}
	var parts []*plan.Node
	next, sum := 0, int64(0)
	for i, name := range names {
		sum += in.Library(name).FileSize()
		if i+1 < len(names) && sum*int64(chunks) < int64(len(parts)+1)*total {
			continue
		}
		lo, hi := next, i+1
		next = hi
		deps := append([]*plan.Node{probe}, compacts[lo:hi]...)
		parts = append(parts, g.Node("clone", deps, nil, func(deps []any) (any, error) {
			if !deps[0].(*verifyProbe).needClone {
				return nil, nil
			}
			for j, d := range deps[1:] {
				i := lo + j
				sp := d.(*LibDebloat).Report.Sparse
				bufs[i] = bufpool.Get(int(sp.Len()))
				lib, err := elfx.Parse(names[i], sp.MaterializeInto(bufs[i]))
				if err != nil {
					return nil, fmt.Errorf("negativa: clone install: replace %s: %w", names[i], err)
				}
				libs[i] = lib
			}
			return nil, nil
		}))
	}
	return g.Node("clone", append([]*plan.Node{probe}, parts...), nil, func(deps []any) (any, error) {
		if !deps[0].(*verifyProbe).needClone {
			return nil, nil
		}
		clone := *in
		clone.Libs = make(map[string]*elfx.Library, len(in.Libs))
		for name, lib := range in.Libs {
			clone.Libs[name] = lib
		}
		for i, name := range names {
			clone.Libs[name] = libs[i]
		}
		return &clone, nil
	})
}
