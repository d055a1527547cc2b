// Package castore is a crash-safe, disk-backed content-addressed store for
// the debloating pipeline's derived artifacts: compact-result records,
// verified usage profiles, verification records, and job manifests.
//
// Objects are addressed by (kind, key) where kind namespaces the artifact
// type and key is a name the caller derives from what produced the object
// (a stage hash, a job ID), so one key names one payload. Every object's
// header carries the SHA-256 of its payload, and every read checks the
// payload against it: Get, OpenMapped, Verify, Import and
// EntryReader.Frame. Put computes the sum; a Frame carries one, made by
// NewFrame or checked by EntryReader.Frame, and PutFrame and AppendEntry
// write it without hashing the payload again. No function takes a sum
// from its caller.
//
// Layout. Every object, manifests included, is one entry appended to a
// segment file, <dir>/NNNNNNNN.seg: its name (u16 length, kind/key), the
// 48-byte header, the payload. A segment takes appends up to 4 MiB; then
// the next one opens. The root holds the segments, the .lock file and the
// .index file, nothing else. An entry is also the multi-object body's
// (AppendEntry, ExportEntry, ImportEntries), so Export and ExportEntry copy
// a segment range verbatim and an Import of a verified frame is an append.
// One reader parses every body that arrives: EntryReader, under a bound on
// the whole body stated by its caller, which ImportEntries streams into
// the store and a peer's lookup answer is read whole with (Frame, which
// checks the sum).
// A Put costs a hash and one write to an open file, where a file per
// object cost a create, a write, a close and a rename: BenchmarkStorePut
// puts a 519-byte object in 2.7–6.5 µs against 24–31 µs that way (ext4,
// 2 vCPUs). A store in that older layout, kind/key or kind/xx/key, is
// moved into segments at its first Open (migrate.go).
//
// Index. Close writes .index: every segment's length, then every object's
// kind, key, size, segment and offset, oldest first, under its own
// SHA-256. Open trusts it when the segment files are exactly the indexed
// ones at their lengths, and then reads no segment; otherwise it reads
// each segment's names and headers in order, and the newest entry of a key
// wins. The first change after Open removes the index, so a store that
// dies before Close is read from its segments at the next Open. An index
// that lies anyway costs a recompute, never wrong bytes: Get checks the
// entry's name, its header's length and its payload's sum.
//
// Crash model. Appends are flushed at SyncDirs, which fsyncs every segment
// appended to since its last flush, and the directory when a segment was
// created or removed. A caller that publishes a reference (a manifest)
// calls SyncDirs first, so no manifest is durable before what it names. A
// power cut can tear the entries after the last flush: Open cuts each
// segment at its first entry that is not whole, so a torn entry is never
// served and the next append starts on an entry boundary. A process crash
// tears nothing. Deletes and evictions are not logged: they are durable
// once Close writes the index or their segment is reclaimed, and a crash
// before either can bring a removed object back — whole and checked, since
// its key names one payload — for the budget or its owner to remove again.
//
// Budget. Beyond MaxBytes of live payload, the least-recently-used
// unreferenced objects are removed; their entries go dead in place. A
// sealed segment whose live entries fill half of it or less is reclaimed:
// its live entries, pinned ones included, are copied to the active segment
// and flushed, and only then is the segment unlinked. Reference counts
// (Retain/Release) are an in-memory overlay rebuilt by the owner on boot;
// Delete removes a pinned object too, and its pins pass to the key's next
// Put, so a caller can replace an object its jobs still hold.
package castore
