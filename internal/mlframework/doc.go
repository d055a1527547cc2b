// Package mlframework generates the synthetic ML framework installations
// the experiments debloat: PyTorch, TensorFlow, vLLM, and Hugging Face
// Transformers, each as a set of ELF shared libraries with planted CPU
// functions and GPU kernels.
//
// The generator is deterministic (content is derived from name hashes, not
// RNG state) and plants three kinds of inventory per library:
//
//   - CPU functions: init functions the framework calls at import time,
//     per-family dispatch functions called when an operator runs, and bloat
//     functions nothing calls.
//   - GPU kernels: for every architecture the library ships, an "engine"
//     cubin per kernel family holding all shape variants any supported
//     workload could use (plus device-only child kernels), and bloat cubins
//     holding kernels nothing launches. Libraries with Hopper/Ampere-tuned
//     code ship finer-grained per-variant cubins for those architectures,
//     reproducing the paper's lower element-count reductions on H100 and
//     8xA100 (Tables 6 and 10).
//   - Filler .rodata, standing in for the non-code content of real
//     libraries.
//
// Sizes are scaled: 1 paper-MB = 1 simulated-KB, function counts
// scaled by 1/100, element counts by roughly 1/10.
package mlframework
