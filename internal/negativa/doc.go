// Package negativa implements Negativa-ML, the paper's debloating tool for
// ML shared libraries (§3). The pipeline has three phases plus verification:
//
//   - Detection: run the target workload once with the CUPTI kernel detector
//     (a hook on cuModuleGetFunction that records each CPU-launching
//     kernel's name exactly once) and a CPU-function profiler.
//   - Location: map used kernels to the cubins containing them, cubins to
//     fatbin elements, and elements to file ranges; retain an element only
//     if its compute-capability matches the device architecture and it
//     contains a used CPU-launching kernel (GPU-launching kernels ride
//     along because they share the cubin). Map used CPU functions to their
//     .text file ranges through the symbol table.
//   - Compaction: zero every unretained file range, preserving ELF and
//     fatbin structure so addresses stay valid.
//   - Verification: re-run the workload on the debloated libraries and
//     compare output digests.
//
// Batch (batch.go) runs the phases as the repository's one stage graph, for
// a workload set debloated against the union of its profiles: Debloat is a
// batch of one member, and internal/dserve runs many, passing its memo
// tiers in as Batch's hooks. debloatMonolith is the serial reference the
// golden tests hold the graph to.
package negativa
