// Package gateway is the multi-tenant front door of the debloat service:
// the admission, scheduling, and streaming layer that stands between
// untrusted clients and the single shared dserve batch engine.
//
// The gateway owns three concerns the serving plane deliberately does not:
//
//   - Tenancy. Every request authenticates with an API key that maps to a
//     named tenant (see TenantConfig). Tenants carry quotas — concurrent
//     batches in flight, retained result bytes, and analysis stage-seconds
//     per fixed window — and a request that would exceed one is shed with
//     a 429 and a Retry-After hint rather than queued.
//
//   - Priority lanes. Admitted work waits in one of two lanes,
//     interactive or bulk, drained by a weighted round-robin dispatcher
//     into a bounded number of running backend jobs. Under contention
//     the interactive lane receives InteractiveWeight units of service
//     for every BulkWeight the bulk lane gets; an uncontested lane drains
//     at full speed without building up credit.
//
//   - Coalescing. A request identical (same canonical request JSON) to
//     one still in flight rides that request's backend job instead of
//     creating another: same job ID, "coalesced": true, its own quota
//     charges. A rider cancelled while the job is still held detaches
//     alone (a tenant's riders of one job, together); the job is
//     withdrawn only when its last rider cancels.
//
// There is one job table, the backend's. Admission creates the dserve job
// held (SubmitOptions.Hold), the lane dispatcher releases it, and every
// rider streams the job's one event log over the serving plane's own
// SSE/long-poll renderer. The gateway keeps only a rider index (job ID →
// tenant, lane, coalesced, cancelled) that decides who may see a job; it
// learns of completion and eviction through the backend's OnDone and
// OnEvict callbacks, so it runs no goroutine of its own and has no
// pruning rule of its own. Until OnDone has settled a finished job's
// charges, the job still reads running, so no client acts on a finish the
// quotas have not seen.
//
// The gateway talks to the engine through the narrow Backend interface —
// *dserve.Service satisfies it directly, tests substitute fakes — and
// merges its own counters, lane depths, and live accounting into the
// backend's /v1/metrics payload under a "gateway" section, scoped to the
// requesting tenant (one tenant never sees another's names or usage).
//
// The backend's node-to-node /v1/peer/* surface is forwarded key-less
// only when Config.PeerPassthrough marks the node a cluster member —
// peers authenticate with the cluster's shared secret, not API keys —
// and refused with 404 everywhere else, so tenants can never reach it.
package gateway
