// Command negativa-served runs the batch-debloat service: an HTTP/JSON
// front end over internal/dserve that union-debloats one framework install
// against many workloads per job, reuses detection profiles across jobs,
// and caches per-library locate/compact results content-addressed.
//
// Usage:
//
//	negativa-served -addr :8080 -workers 8 -cache-mb 64 -steps 4 \
//	                -data-dir /var/lib/negativa -disk-mb 512
//
// With -data-dir the service is durable: detection profiles, locate/compact
// records, verification records and completed-job manifests persist to a
// crash-safe store, and a restart against the same directory resumes warm —
// previously submitted jobs are served (status, report, fetch-library) by
// rerunning their requests over the stored records, without re-running
// detection, location, or compaction. A restored ingest job needs its
// ingest directory. -disk-mb bounds the store; least-recently-used objects
// not referenced by a retained job are evicted beyond it (see
// docs/ARCHITECTURE.md, "Durability").
//
// With -peers and -node-id the node joins a sharded serving plane: a
// consistent-hash ring over the peer set gives each detect and compact
// stage key a small set of owning nodes whose memos hold its value. Every
// miss computes on the node that took the batch (it holds the install and
// the library images) and is written back to every owner; other nodes read owners through (and keep a
// local copy), so the cluster shares one logical cache. Every node of a
// symmetric deployment can pass the same -peers list — a node's own entry
// is ignored:
//
//	negativa-served -addr :8080 -node-id a \
//	    -peers a=http://h1:8080,b=http://h2:8080,c=http://h3:8080
//
// Peer failures shrink the ring and stages fall back to local compute; a
// recovered peer is readmitted after a probation period. /v1/metrics gains
// a "peer" section (hits/misses/fallbacks, per-peer health); per-peer
// request latency is in the "timings" section as peer.<node-id>. Every
// node of a ring runs the same peer protocol: a peer that cannot answer it
// is a failed peer, and its stages compute locally.
//
// The node-to-node /v1/peer/* routes answer 404 unless the node is
// clustered, and -peer-secret (the same value on every node) makes each
// peer request carry and require an X-Peer-Secret header. Without a
// secret, peer traffic is unauthenticated — isolate the peer network from
// clients.
//
// With -tenants the multi-tenant gateway fronts the service: every /v1/
// route then requires a tenant API key (Authorization: Bearer or
// X-API-Key) — /v1/peer/* is forwarded key-less on clustered nodes (peers
// authenticate with -peer-secret) and refused with 404 everywhere else —
// per-tenant quotas (concurrent batches, retained
// result bytes, stage-seconds per window) shed over-budget submissions
// with 429 + Retry-After, identical in-flight batches coalesce across
// tenants onto one backend execution, and two weighted priority lanes
// (interactive, bulk) order dispatch under contention. Job progress
// streams live over GET /v1/jobs/{id}/events (SSE or long-poll). The
// tenant file is JSON:
//
//	{"tenants": [
//	  {"name": "acme", "keys": ["key-acme-1"], "lane": "interactive",
//	   "quota": {"max_concurrent": 4, "max_result_bytes": 67108864,
//	             "stage_seconds": 120, "window_seconds": 60}},
//	  {"name": "batch-org", "keys": ["key-batch"], "lane": "bulk"}
//	]}
//
// SIGHUP re-reads the file in place — key rotation and quota changes land
// without dropping in-flight jobs. /v1/metrics gains a "gateway" section
// (admitted/shed/coalesced totals and per-lane breakdowns, queue depths,
// dispatch timings) scoped to the requesting tenant: a tenant sees its own
// counters and accounting, never another tenant's.
//
// Endpoints:
//
//	POST /v1/jobs                   submit a batch job; a "base" job ID
//	                                makes the batch extend a prior one —
//	                                zero detect runs, untouched libraries
//	                                absorbed, only the union-delta
//	                                locate/compact recomputed
//	GET  /v1/jobs                   list jobs
//	GET  /v1/jobs/{id}              job status
//	GET  /v1/jobs/{id}/events       live progress stream (SSE or long-poll)
//	DELETE /v1/jobs/{id}            cancel a still-queued job (gateway mode)
//	GET  /v1/jobs/{id}/report       full report of a completed job
//	GET  /v1/jobs/{id}/libs/{name}  download one debloated library
//	GET  /v1/metrics                counters, cache stats, timings
//	GET  /v1/store                  content-addressed store stats
//	POST /v1/peer/lookup-batch              node-to-node stage read-through
//	PUT  /v1/peer/install/{fingerprint}     a peer's generated install, for
//	                                        an owner of its detect keys; asks
//	                                        first, so a holder reads none of it
//	PUT  /v1/peer/objects                   castore objects push, many per
//	                                        request (write-back, repair)
//	POST /v1/peer/stat                      object presence probe (repair)
//
// Example job body:
//
//	{
//	  "framework": "pytorch", "tail_libs": 20, "max_steps": 4,
//	  "workloads": [
//	    {"model": "MobileNetV2", "batch": 1},
//	    {"model": "MobileNetV2", "train": true, "batch": 16},
//	    {"model": "Transformer", "batch": 32, "device": "A100"},
//	    {"model": "Transformer", "train": true, "batch": 128}
//	  ]
//	}
//
// With -ingest-root the service also accepts ingestion-mode jobs: the body
// names an on-disk tree ("ingest_dir", resolved under and confined to the
// root) instead of a framework, the node classifies the tree's files,
// resolves the DT_NEEDED dependency closure, and debloats the ingested
// install through the same stage DAG, memo tiers, and cluster ring:
//
//	{"ingest_dir": "pytorch-tree", "workloads": [{"model": "MobileNetV2"}]}
//
// On SIGINT/SIGTERM the server stops accepting connections, drains in-flight
// requests, and waits for running jobs before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/dserve"
	"negativaml/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent tasks across all jobs")
	cacheMB := flag.Int64("cache-mb", 64, "content-addressed result cache bound (retained MiB; entries are sparse range sets, not library copies)")
	steps := flag.Int("steps", 4, "default detection/verification step cap for jobs")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")
	dataDir := flag.String("data-dir", "", "persistent store directory; empty = in-memory only (no warm restart)")
	diskMB := flag.Int64("disk-mb", 512, "persistent store byte budget in MiB (with -data-dir)")
	nodeID := flag.String("node-id", "", "this node's name in the cluster (with -peers)")
	peers := flag.String("peers", "", "cluster peers as id=base-url,... (the whole cluster's list; this node's own entry is ignored)")
	peerSecret := flag.String("peer-secret", "", "shared cluster credential; peer requests carry and require it (with -peers)")
	replicas := flag.Int("replicas", 2, "replica owners per stage key, R (with -peers)")
	repairEvery := flag.Duration("repair-interval", time.Minute, "anti-entropy repair sweep period; 0 disables (with -peers and -data-dir)")
	ingestRoot := flag.String("ingest-root", "", "enable ingestion-mode jobs (\"ingest_dir\" in the submit body): requested trees resolve under and are confined to this directory")
	tenantsPath := flag.String("tenants", "", "tenant config JSON; enables the multi-tenant gateway (API keys, quotas, lanes)")
	gwDispatch := flag.Int("gw-dispatch", 4, "gateway concurrent dispatch slots (with -tenants)")
	gwQueue := flag.Int("gw-queue", 64, "gateway per-lane queue depth before load-shedding (with -tenants)")
	gwIWeight := flag.Int("gw-interactive-weight", 3, "interactive lane weight in the dispatch ratio (with -tenants)")
	gwBWeight := flag.Int("gw-bulk-weight", 1, "bulk lane weight in the dispatch ratio (with -tenants)")
	flag.Parse()

	// Reject misconfigurations loudly instead of silently coercing them to
	// defaults (Config applies defaults to zero values, which would turn a
	// typo'd "-workers 0" into NumCPU workers).
	if *workers <= 0 {
		log.Fatalf("negativa-served: -workers must be positive (got %d)", *workers)
	}
	if *cacheMB < 0 {
		log.Fatalf("negativa-served: -cache-mb must not be negative (got %d)", *cacheMB)
	}
	if *diskMB < 0 {
		log.Fatalf("negativa-served: -disk-mb must not be negative (got %d)", *diskMB)
	}
	diskSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "disk-mb" {
			diskSet = true
		}
	})
	if diskSet && *dataDir == "" {
		log.Fatal("negativa-served: -disk-mb has no effect without -data-dir")
	}
	if (*peers == "") != (*nodeID == "") {
		log.Fatal("negativa-served: -peers and -node-id must be set together")
	}
	if *peerSecret != "" && *peers == "" {
		log.Fatal("negativa-served: -peer-secret has no effect without -peers")
	}
	if *replicas < 1 {
		log.Fatalf("negativa-served: -replicas must be positive (got %d)", *replicas)
	}
	if *repairEvery < 0 {
		log.Fatalf("negativa-served: -repair-interval must not be negative (got %v)", *repairEvery)
	}
	flag.Visit(func(f *flag.Flag) {
		if *peers == "" && (f.Name == "replicas" || f.Name == "repair-interval") {
			log.Fatalf("negativa-served: -%s has no effect without -peers", f.Name)
		}
	})
	for _, f := range []struct {
		name string
		val  int
	}{{"gw-dispatch", *gwDispatch}, {"gw-queue", *gwQueue}, {"gw-interactive-weight", *gwIWeight}, {"gw-bulk-weight", *gwBWeight}} {
		if f.val <= 0 {
			log.Fatalf("negativa-served: -%s must be positive (got %d)", f.name, f.val)
		}
	}
	var peerMap map[string]string
	if *peers != "" {
		pm, err := cluster.ParsePeers(*peers)
		if err != nil {
			log.Fatalf("negativa-served: %v", err)
		}
		if _, onlySelf := pm[*nodeID]; onlySelf && len(pm) == 1 {
			log.Fatalf("negativa-served: -peers names only this node (%s)", *nodeID)
		}
		peerMap = pm
	}

	cfg := dserve.Config{
		Workers:    *workers,
		CacheBytes: *cacheMB << 20,
		MaxSteps:   *steps,
		IngestRoot: *ingestRoot,
	}
	if peerMap != nil {
		cfg.RepairInterval = *repairEvery
	}
	gwCfg := gateway.Config{
		DispatchSlots:     *gwDispatch,
		QueueDepth:        *gwQueue,
		InteractiveWeight: *gwIWeight,
		BulkWeight:        *gwBWeight,
		PeerPassthrough:   peerMap != nil,
	}
	if *tenantsPath != "" {
		// Held gateway jobs count toward the backend's in-flight bound; size
		// it so that each lane's -gw-queue is the limit that binds.
		cfg.MaxInFlight = gwCfg.BackendMaxInFlight()
	}
	if *dataDir != "" {
		store, err := castore.Open(*dataDir, castore.Options{MaxBytes: *diskMB << 20})
		if err != nil {
			log.Fatalf("negativa-served: %v", err)
		}
		cfg.Store = store
		st := store.Stats()
		log.Printf("negativa-served: store %s: %d objects, %.1f MiB (budget %d MiB)",
			*dataDir, st.Objects, float64(st.Bytes)/(1<<20), *diskMB)
	}
	svc := dserve.NewService(cfg)
	if *dataDir != "" {
		log.Printf("negativa-served: restored %d jobs", svc.Counters.Get("jobs.restored"))
	}
	if peerMap != nil {
		c := cluster.New(*nodeID, peerMap, cluster.Options{
			ReplicaSets:       *replicas,
			HeartbeatInterval: 2 * time.Second,
			Counters:          svc.Counters,
			Timings:           svc.Timings,
			Secret:            *peerSecret,
		})
		svc.AttachCluster(c)
		log.Printf("negativa-served: node %s in a %d-node ring (%v), R=%d", *nodeID, len(c.Nodes()), c.Nodes(), *replicas)
		// Announce ourselves: peers that already dropped a previous
		// incarnation of this node (or never knew it) admit it immediately
		// instead of discovering it through gossip.
		go func() {
			if n := c.Join(); n > 0 {
				log.Printf("negativa-served: join acknowledged by %d peers", n)
			}
		}()
	}
	handler := http.Handler(dserve.NewHandler(svc))
	var gw *gateway.Gateway
	if *tenantsPath != "" {
		tenants, err := gateway.LoadTenants(*tenantsPath)
		if err != nil {
			log.Fatalf("negativa-served: %v", err)
		}
		gw, err = gateway.New(svc, gwCfg, tenants)
		if err != nil {
			log.Fatalf("negativa-served: %v", err)
		}
		if peerMap != nil && *peerSecret == "" {
			log.Printf("negativa-served: warning: -tenants with -peers but no -peer-secret; the forwarded /v1/peer/* surface is unauthenticated — keep it network-isolated from clients")
		}
		handler = gateway.NewHandler(gw, handler)
		log.Printf("negativa-served: gateway: %d tenants, %d dispatch slots, interactive:bulk %d:%d",
			len(tenants), *gwDispatch, *gwIWeight, *gwBWeight)

		// SIGHUP re-reads the tenant file: key rotation and quota changes
		// land without dropping in-flight jobs.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				tenants, err := gateway.LoadTenants(*tenantsPath)
				if err != nil {
					log.Printf("negativa-served: tenant reload rejected: %v", err)
					continue
				}
				if err := gw.SetTenants(tenants); err != nil {
					log.Printf("negativa-served: tenant reload rejected: %v", err)
					continue
				}
				log.Printf("negativa-served: reloaded %d tenants", len(tenants))
			}
		}()
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	errc := make(chan error, 1)
	go func() {
		log.Printf("negativa-served: listening on %s (%d workers, %d MiB result cache)", *addr, svc.Workers(), *cacheMB)
		errc <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("negativa-served: %v", err)
	case s := <-sig:
		log.Printf("negativa-served: %v: draining for up to %v", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("negativa-served: shutdown: %v", err)
	}
	if gw != nil {
		gw.Close() // stop admission and dispatch; svc.Close fails held jobs
	}
	if peerMap != nil {
		// Graceful departure: hand primary-owned objects to the ring's next
		// owners, announce the leave, stop the membership plane. Peers drop
		// this node immediately instead of discovering the absence through
		// failed requests.
		svc.LeaveCluster()
	}
	svc.Close() // wait for running jobs
	if cfg.Store != nil {
		cfg.Store.Close()
	}
	log.Printf("negativa-served: done (%d jobs completed)", svc.Counters.Get("jobs.completed"))
}
