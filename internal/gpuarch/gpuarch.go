package gpuarch

import "fmt"

// SM identifies a GPU compute architecture by its SM (streaming
// multiprocessor) version, e.g. 75 for sm_75 (Turing).
type SM uint32

// Architectures that ML frameworks commonly ship device code for. The paper
// observed a single PyTorch shared library carrying elements for six
// different architectures (§4.3).
const (
	SM50 SM = 50 // Maxwell
	SM60 SM = 60 // Pascal
	SM70 SM = 70 // Volta
	SM75 SM = 75 // Turing (NVIDIA T4)
	SM80 SM = 80 // Ampere (NVIDIA A100)
	SM86 SM = 86 // Ampere (consumer)
	SM90 SM = 90 // Hopper (NVIDIA H100)
)

// AllShipped is the set of architectures the synthetic framework generator
// compiles device code for, mirroring the multi-arch fatbins the paper found.
var AllShipped = []SM{SM50, SM60, SM70, SM75, SM80, SM86, SM90}

// String renders the conventional sm_NN spelling.
func (s SM) String() string { return fmt.Sprintf("sm_%d", uint32(s)) }

// Valid reports whether s is one of the architectures this simulator knows.
func (s SM) Valid() bool {
	for _, a := range AllShipped {
		if a == s {
			return true
		}
	}
	return false
}

// Device describes a GPU model: its architecture and memory capacity.
// Capacities are expressed in the repository's scaled units (1 paper-MB =
// 1 simulated KB; see internal/mlframework).
type Device struct {
	Name     string
	Arch     SM
	MemBytes int64
}

// Catalog entries for the GPUs used in the paper's evaluation.
var (
	T4   = Device{Name: "NVIDIA T4", Arch: SM75, MemBytes: 16 << 20}
	A100 = Device{Name: "NVIDIA A100 40GB", Arch: SM80, MemBytes: 40 << 20}
	H100 = Device{Name: "NVIDIA H100", Arch: SM90, MemBytes: 80 << 20}
)

// ByName looks up a catalog device by its short name ("T4", "A100", "H100").
func ByName(name string) (Device, error) {
	switch name {
	case "T4", "t4":
		return T4, nil
	case "A100", "a100":
		return A100, nil
	case "H100", "h100":
		return H100, nil
	}
	return Device{}, fmt.Errorf("gpuarch: unknown device %q", name)
}
