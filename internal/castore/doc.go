// Package castore is a crash-safe, disk-backed content-addressed store for
// the debloating pipeline's derived artifacts: compact-result records,
// verified usage profiles, verification records, and job manifests.
//
// Objects are addressed by (kind, key) where kind namespaces the artifact
// type and key is a name the caller derives from what produced the object
// (a stage hash, a job ID), so one key names one payload. Every object is
// written crash-safely — payload plus an integrity header go to a temp
// file, which is atomically renamed into place and fsynced at the next
// SyncDirs — so after a crash the store holds either the complete object
// or nothing; Verify scans the whole store and removes anything that fails
// its checksum.
//
// Every object's header carries the SHA-256 of its payload, which Put and
// Frame compute, and every read checks the payload against it: Get,
// OpenMapped, Verify and Import.
//
// On disk an object is one file, <dir>/<kind>/<key>; the root holds only
// the kind directories, tmp/, the .lock file and the .index file. The
// layout is flat because Open lists every directory. A reopened pytorch141
// batch store sharded over up to 256 kind/xx/ directories per kind was
// 234 directories, and Open cost 19–23 µs and 23 allocations per object
// (BenchmarkStoreOpen, 2 vCPUs); listing one directory per kind and
// opening each object for its header (the scan), it costs 9–11 µs and 8
// allocations. A kind directory of a few hundred entries leaves Get's
// cost unchanged (BenchmarkDiskHit). The scan moves the objects of a
// sharded store up to kind/key, so an older store is indexed, not lost.
//
// Close writes the index: every object's kind, key and size, oldest first,
// under its own SHA-256. Open trusts it when the kind directories list
// exactly the indexed objects, and then opens no object:
// BenchmarkStoreOpen/index reads 1.45–1.76 µs per object against the
// scan's 7.6–9.4 (2 vCPUs). Anything else — no index, a torn or bit-flipped one, an object
// added or removed behind its back, a shard directory — falls back to the
// scan, and the first change after Open removes the file, so a store that
// dies before Close scans at its next Open. A size the index gets wrong is
// still caught on read: Get and OpenMapped reject a file whose length or
// header disagrees with it, and every read checks the payload's checksum.
// A lying index costs a recompute, never wrong bytes.
//
// The store is byte-budgeted: beyond MaxBytes, the least-recently-used
// unreferenced objects are deleted. Reference counts (Retain/Release) are an
// in-memory overlay rebuilt by the owner on boot — the serving layer pins
// the objects its restored jobs still need, and everything else is fair
// game for eviction.
package castore
