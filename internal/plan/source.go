package plan

import "time"

// Source identifies which memo tier produced a stage value. Tiered memos
// (the serving plane's memory → castore → owning-peer lookup) report it
// from Memo.GetOrCompute so observers can tell a local recompute from a
// disk restore from a cross-node read-through.
type Source int

const (
	// SourceComputed means the node's work function ran.
	SourceComputed Source = iota
	// SourceMemory means the value came from an in-memory memo tier.
	SourceMemory
	// SourceDisk means the value was restored from a local persistent tier.
	SourceDisk
	// SourcePeer means the value was fetched from the stage's owning
	// cluster peer.
	SourcePeer
)

// Hit reports whether the value was served without running the node's work
// function. A value read from an owning peer counts as a hit from this
// node's perspective: no local compute happened.
func (s Source) Hit() bool { return s != SourceComputed }

// String returns the source's metrics-friendly name.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	case SourcePeer:
		return "peer"
	default:
		return "computed"
	}
}

// SourceObserver is an optional Observer extension: implementations also
// receive each finished node's value source (SourceComputed for unmemoized
// glue nodes and plain misses). It fires in addition to StageDone, never
// instead of it.
type SourceObserver interface {
	StageSource(stage string, src Source, wall time.Duration)
}
