package dserve

import (
	"encoding/json"
	"sync/atomic"

	"negativaml/internal/castore"
	"negativaml/internal/negativa"
)

// ProfileKey identifies a stored detection profile: the install it was
// detected on and the workload configuration that produced it.
type ProfileKey struct {
	// Install is the install fingerprint (negativa.InstallFingerprint).
	Install string
	// Workload is the workload identity (negativa.WorkloadIdentity) —
	// everything that shapes what detection observes.
	Workload string
}

// Registry stores detection profiles for reuse across jobs. Stored
// profiles are immutable and shared; callers must not mutate them. The
// registry is bounded: beyond max entries the oldest profiles are evicted
// (workload identities are client-controlled, so unbounded growth would
// let a sweeping client OOM a long-running service).
type Registry struct {
	profiles *fifoMap[ProfileKey, *negativa.Profile]

	// store, when attached, snapshots every Put so a rebooted service
	// replays its profiles instead of re-detecting them.
	store atomic.Pointer[castore.Store]
}

// DefaultRegistryEntries bounds NewRegistry's profile retention (and the
// stage memo's verify-record retention, which follows the same rule).
const DefaultRegistryEntries = 1024

// NewRegistry returns an empty profile registry bounded to
// DefaultRegistryEntries profiles.
func NewRegistry() *Registry {
	return &Registry{profiles: newFifoMap[ProfileKey, *negativa.Profile](DefaultRegistryEntries)}
}

// AttachStore wires profile snapshotting in. Call before serving.
func (r *Registry) AttachStore(st *castore.Store) { r.store.Store(st) }

// Put stores a profile under the key, evicting the oldest entries beyond
// the bound, and — with a store attached — snapshots it to disk so the next
// boot replays it instead of re-running detection. Snapshots of evicted
// entries are deleted: workload identities are client-controlled, so the
// on-disk profile set must stay bounded by the same sweep-resistance cap as
// the in-memory registry.
func (r *Registry) Put(key ProfileKey, p *negativa.Profile) {
	evicted := r.profiles.put(key, p)
	st := r.store.Load()
	if st == nil {
		return
	}
	// A failed snapshot only costs the next boot a re-detection.
	if data, err := json.Marshal(storedProfile{Install: key.Install, Workload: key.Workload, Profile: p}); err == nil {
		st.Put(kindProfile, profileObjectKey(key), data)
	}
	for _, ev := range evicted {
		st.Delete(kindProfile, profileObjectKey(ev))
	}
}

// Replay loads every snapshotted profile from the attached store into
// memory (up to the registry bound) and returns how many it restored.
// Corrupt or unreadable snapshots are skipped: the worst case is a
// re-detection, never a wrong profile.
func (r *Registry) Replay() int {
	st := r.store.Load()
	if st == nil {
		return 0
	}
	n := 0
	st.Walk(kindProfile, func(key string, _ int64) error {
		if n >= r.profiles.max {
			return nil
		}
		raw, ok := st.Get(kindProfile, key)
		if !ok {
			return nil
		}
		var sp storedProfile
		// Persisted bytes are untrusted: a profile without a run result
		// would nil-panic the reuse path (p.RunResult.Digest), so it is
		// skipped like any other corrupt snapshot.
		if err := json.Unmarshal(raw, &sp); err != nil || sp.Profile == nil || sp.Profile.RunResult == nil {
			return nil
		}
		r.profiles.put(ProfileKey{Install: sp.Install, Workload: sp.Workload}, sp.Profile)
		n++
		return nil
	})
	return n
}

// Get returns the stored profile for the key.
func (r *Registry) Get(key ProfileKey) (*negativa.Profile, bool) { return r.profiles.get(key) }

// Has reports whether a profile for the key is resident, without
// returning it — the batch prefetch's local-presence probe.
func (r *Registry) Has(key ProfileKey) bool {
	_, ok := r.profiles.get(key)
	return ok
}

// Len returns the number of stored profiles.
func (r *Registry) Len() int { return r.profiles.size() }
