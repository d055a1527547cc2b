// Package castore is a crash-safe, disk-backed content-addressed store for
// the debloating pipeline's derived artifacts: library images, compact-result
// records, verified usage profiles, verification records, and job manifests.
//
// Objects are addressed by (kind, key) where kind namespaces the artifact
// type and key is a content digest (or a stable identifier for manifests).
// Every object is written crash-safely — payload plus an integrity header go
// to a temp file, the file is fsynced, then atomically renamed into place —
// so after a crash the store holds either the complete object or nothing;
// Verify scans the whole store and removes anything that fails its checksum.
//
// The store is byte-budgeted: beyond MaxBytes, the least-recently-used
// unreferenced objects are deleted. Reference counts (Retain/Release) are an
// in-memory overlay rebuilt by the owner on boot — the serving layer pins
// the objects its restored jobs still need, and everything else is fair
// game for eviction.
package castore
