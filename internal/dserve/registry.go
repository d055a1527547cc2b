package dserve

import (
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

// Registry stores detection profiles for reuse across jobs: the detect
// stage's memory tier, over the attached store's profile records
// (negativa.EncodeProfile), which the stage memo's disk loader reads
// through on a memory miss. Stored profiles are immutable and shared;
// callers must not mutate them. Both tiers are bounded to
// DefaultRegistryEntries, oldest first (workload identities are
// client-controlled, so unbounded growth would let a sweeping client
// exhaust a long-running service's memory or disk).
type Registry struct {
	profiles *fifoMap[ProfileKey, *negativa.Profile]
	// stored names the store's profile objects, oldest first: the on-disk
	// bound, whose evictions alone delete objects.
	stored *fifoMap[string, struct{}]

	store atomic.Pointer[castore.Store]
}

// DefaultRegistryEntries bounds NewRegistry's profile retention (and the
// stage memo's verify-record retention, which follows the same rule).
const DefaultRegistryEntries = 1024

// NewRegistry returns an empty profile registry bounded to
// DefaultRegistryEntries profiles.
func NewRegistry() *Registry {
	return &Registry{profiles: newFifoMap[ProfileKey, *negativa.Profile](DefaultRegistryEntries), stored: newFifoMap[string, struct{}](DefaultRegistryEntries)}
}

// AttachStore gives the registry the store its on-disk bound deletes from;
// call before serving. The profiles already stored count against the bound
// unread.
func (r *Registry) AttachStore(st *castore.Store) {
	r.store.Store(st)
	st.Walk(kindProfile, func(key string, _ int64) error {
		r.noteStored(key)
		return nil
	})
}

// Put plants a profile in memory. With a store attached, Put counts its
// record against the on-disk bound: a profile computed here or received
// from a peer is written behind (Service.writeStage), and one read from
// disk is already there.
func (r *Registry) Put(key ProfileKey, p *negativa.Profile) {
	r.profiles.put(key, p)
	if r.store.Load() != nil {
		r.noteStored(profileObjectKey(negativa.DetectKey(key.Install, key.Workload).Hash))
	}
}

// noteStored counts one profile object against the on-disk bound,
// deleting the objects of the oldest profiles beyond it.
func (r *Registry) noteStored(objectKey string) {
	st := r.store.Load()
	for _, ev := range r.stored.put(objectKey, struct{}{}) {
		st.Delete(kindProfile, ev)
	}
}

// Get returns the key's profile from the memory tier.
func (r *Registry) Get(key ProfileKey) (*negativa.Profile, bool) { return r.profiles.get(key) }

// Len returns the number of profiles in the memory tier.
func (r *Registry) Len() int { return r.profiles.size() }
