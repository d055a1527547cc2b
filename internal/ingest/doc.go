// Package ingest turns an on-disk tree — an unpacked wheel, a site-packages
// directory, or an install written by mlframework.WriteTo — into a debloatable
// install unit.
//
// Tree works in two passes. The walk only lists: sorted directory entries,
// bounded in depth and count, symlinked directories recorded and never
// followed — so an oversized tree is rejected before a byte of any file is
// read. The listed files are then classified by content across
// min(GOMAXPROCS, files) workers: four bytes of magic decide, a file that
// starts with the ELF magic is read whole and parsed (its dynamic section
// gives DT_SONAME and DT_NEEDED), and scripts and data are recognized from
// the sniff alone, however large; the install.json manifest decodes beside
// them. Libraries are then registered in walk order and the dependency
// graph resolves into a closure rooted at the tree's entry libraries, so
// reports, closure and every error are those of a one-file-at-a-time walk
// whatever the worker count.
// Result.Install materializes the closure as an mlframework.Install whose
// fingerprint derives from the real file bytes, so ingested trees ride the
// detect → locate → compact → verify stage DAG and the memo tiers exactly
// like generated installs. On a cluster ring their stage values are read
// from and written back to the owning peers by content key like any
// other, but their batches are spec-less: an owning peer is never asked to
// execute one of their detect stages (it has no spec to resolve the
// install by, and the requester serves only installs it resolved by spec),
// so a detect miss computes on the node that ingested the tree.
//
// Ingestion is the first code path fed by files this process did not author:
// every anomaly — symlink loops, truncated ELF headers, unreadable files,
// missing dependencies — is classified or rejected with an error, never
// silently skipped.
package ingest
