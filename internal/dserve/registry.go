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

// Registry stores detection profiles for reuse across jobs: a memory tier
// over the attached store's profile records (negativa.EncodeProfile), read
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

// AttachStore gives the registry its disk tier; call before serving. The
// profiles already stored count against the on-disk bound unread.
func (r *Registry) AttachStore(st *castore.Store) {
	r.store.Store(st)
	st.Walk(kindProfile, func(key string, _ int64) error {
		r.noteStored(key)
		return nil
	})
}

// Put plants a profile computed here or received from a peer in memory.
// With a store attached, the caller writes its record behind
// (Service.replicateProfile), and Put counts that object against the
// on-disk bound.
func (r *Registry) Put(key ProfileKey, p *negativa.Profile) {
	r.profiles.put(key, p)
	if r.store.Load() != nil {
		r.noteStored(profileObjectKey(key))
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

// Load reads the key's profile from the disk tier and plants it in
// memory. A record that does not decode as this key's profile — corrupt,
// filed under another key, or written in an older format — is deleted, so
// the recompute it forces can store it again. A plant adds no object, so
// it deletes none.
func (r *Registry) Load(key ProfileKey) (*negativa.Profile, bool) {
	st := r.store.Load()
	if st == nil {
		return nil, false
	}
	okey := profileObjectKey(key)
	if !st.Has(kindProfile, okey) {
		return nil, false
	}
	raw, ok := st.Get(kindProfile, okey)
	p, err := negativa.DecodeProfile(raw, key.Install, key.Workload)
	if !ok || err != nil {
		st.Delete(kindProfile, okey)
		return nil, false
	}
	r.profiles.put(key, p)
	return p, true
}

// record returns the key's profile record, the lookup-batch answer: the
// memory tier's profile re-encoded, else the stored bytes as they are.
func (r *Registry) record(key ProfileKey) ([]byte, bool) {
	if p, ok := r.profiles.get(key); ok {
		rec, err := negativa.EncodeProfile(key.Install, key.Workload, p)
		return rec, err == nil
	}
	if !r.Has(key) {
		return nil, false
	}
	return r.store.Load().Get(kindProfile, profileObjectKey(key))
}

// Has reports whether the key's profile is in memory or on disk, without
// reading it — the batch prefetch's local-presence probe. Probing before a
// read keeps a key the store lacks from counting as a store miss.
func (r *Registry) Has(key ProfileKey) bool {
	_, ok := r.profiles.get(key)
	st := r.store.Load()
	return ok || st != nil && st.Has(kindProfile, profileObjectKey(key))
}

// Len returns the number of profiles in the memory tier.
func (r *Registry) Len() int { return r.profiles.size() }
