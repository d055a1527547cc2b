// Package elfx builds, reads, and compacts ELF64 shared libraries.
//
// ML frameworks ship their core functionality as ELF shared libraries whose
// .text section holds host (CPU) code and whose .nv_fatbin section holds
// device (GPU) code (paper §2.1). This package is the repository's substrate
// for those libraries: a from-scratch writer that emits real ELF64 files
// (parseable by the standard library's debug/elf, which the tests use as an
// oracle), a reader that recovers function and section file ranges, and the
// zero-compaction primitives the debloater's compaction phase uses.
//
// A Library memoizes what it derives from its bytes: the analysis index
// (Index) and the load facts a simulated run reads (LoadFacts). Its bytes
// must therefore not change after its first Index or load. A caller that
// zeroes a library's Data in place does so before either, or zeroes a copy
// and parses a new Library from it.
package elfx
