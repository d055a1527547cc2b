package cubin

import (
	"encoding/binary"
	"fmt"
	"sort"

	"negativaml/internal/gpuarch"
)

// Magic identifies a cubin blob ("CUBN" little-endian).
const Magic uint32 = 0x4e425543

// FormatVersion is the version written into new cubins.
const FormatVersion uint16 = 1

// Header layout constants (bytes).
const (
	headerSize      = 40
	kernelEntrySize = 32
)

// Kernel flags.
const (
	// FlagEntry marks a CPU-launching kernel: host code launches it through
	// cuModuleGetFunction + cuLaunchKernel.
	FlagEntry uint32 = 1 << 0
	// FlagDeviceOnly marks a GPU-launching kernel: it is only ever launched
	// from device code (dynamic parallelism) and never passes through
	// cuModuleGetFunction. The kernel detector cannot observe it.
	FlagDeviceOnly uint32 = 1 << 1
)

// Kernel is one kernel inside a cubin.
type Kernel struct {
	Name     string
	Code     []byte
	Flags    uint32
	Launches []int // indices (within the same cubin) of kernels this kernel launches from device code
}

// Entry reports whether the kernel is CPU-launchable.
func (k *Kernel) Entry() bool { return k.Flags&FlagEntry != 0 }

// DeviceOnly reports whether the kernel is only launched from device code.
func (k *Kernel) DeviceOnly() bool { return k.Flags&FlagDeviceOnly != 0 }

// Cubin is a parsed or under-construction kernel container.
type Cubin struct {
	Arch    gpuarch.SM
	Kernels []Kernel
}

// New returns an empty cubin for the given architecture.
func New(arch gpuarch.SM) *Cubin {
	return &Cubin{Arch: arch}
}

// AddKernel appends a kernel and returns its index.
func (c *Cubin) AddKernel(k Kernel) int {
	c.Kernels = append(c.Kernels, k)
	return len(c.Kernels) - 1
}

// KernelNames returns the kernel names in table order.
func (c *Cubin) KernelNames() []string {
	names := make([]string, len(c.Kernels))
	for i, k := range c.Kernels {
		names[i] = k.Name
	}
	return names
}

// EntryKernels returns the names of CPU-launching kernels.
func (c *Cubin) EntryKernels() []string {
	var names []string
	for _, k := range c.Kernels {
		if k.Entry() {
			names = append(names, k.Name)
		}
	}
	return names
}

// FindKernel returns the index of the kernel with the given name, or -1.
func (c *Cubin) FindKernel(name string) int {
	for i, k := range c.Kernels {
		if k.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the structural invariants the rest of the system relies on:
// unique kernel names, in-range call edges, and the same-cubin launch
// invariant (trivially satisfied because edges are indices, but edges from a
// kernel to itself are rejected, as are entry kernels that are also marked
// device-only).
func (c *Cubin) Validate() error {
	if !c.Arch.Valid() {
		return fmt.Errorf("cubin: invalid arch %d", c.Arch)
	}
	seen := make(map[string]bool, len(c.Kernels))
	for i, k := range c.Kernels {
		if k.Name == "" {
			return fmt.Errorf("cubin: kernel %d has empty name", i)
		}
		if seen[k.Name] {
			return fmt.Errorf("cubin: duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
		if k.Entry() && k.DeviceOnly() {
			return fmt.Errorf("cubin: kernel %q is both entry and device-only", k.Name)
		}
		if !k.Entry() && !k.DeviceOnly() {
			return fmt.Errorf("cubin: kernel %q has neither entry nor device-only flag", k.Name)
		}
		for _, tgt := range k.Launches {
			if tgt < 0 || tgt >= len(c.Kernels) {
				return fmt.Errorf("cubin: kernel %q launches out-of-range index %d", k.Name, tgt)
			}
			if tgt == i {
				return fmt.Errorf("cubin: kernel %q launches itself", k.Name)
			}
		}
	}
	return nil
}

// CallGraphFrom returns the set of kernel indices reachable from root
// (inclusive) following Launches edges — the kernel call graph of §3.2.
func (c *Cubin) CallGraphFrom(root int) []int {
	if root < 0 || root >= len(c.Kernels) {
		return nil
	}
	seen := map[int]bool{root: true}
	stack := []int{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tgt := range c.Kernels[n].Launches {
			if !seen[tgt] {
				seen[tgt] = true
				stack = append(stack, tgt)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// CodeSize returns the total size of kernel code in the cubin.
func (c *Cubin) CodeSize() int {
	n := 0
	for _, k := range c.Kernels {
		n += len(k.Code)
	}
	return n
}

// Marshal serializes the cubin. Layout:
//
//	header (40B): magic u32 | version u16 | arch u16 | kernelCount u32 |
//	              strTabOff u32 | strTabSize u32 | codeOff u32 | codeSize u32 |
//	              callTabOff u32 | callTabCount u32 | reserved u32
//	kernel table: kernelCount × 32B entries:
//	              nameOff u32 | nameLen u32 | codeOff u32 | codeSize u32 |
//	              flags u32 | callOff u32 | callCount u32 | reserved u32
//	call table:   callTabCount × u32 kernel indices
//	string table: concatenated names (no separators; entries carry offsets)
//	code blob:    concatenated kernel code
func (c *Cubin) Marshal() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	le := binary.LittleEndian

	// Size every table first, then write each kernel straight into its
	// place: code is most of a cubin, and staging it costs a second copy.
	var strSize, codeSize, callCount int
	for _, k := range c.Kernels {
		strSize += len(k.Name)
		codeSize += len(k.Code)
		callCount += len(k.Launches)
	}
	ktSize := len(c.Kernels) * kernelEntrySize
	callOff := headerSize + ktSize
	strOff := callOff + 4*callCount
	codeOff := strOff + strSize
	total := codeOff + codeSize

	buf := make([]byte, total)
	le.PutUint32(buf[0:], Magic)
	le.PutUint16(buf[4:], FormatVersion)
	le.PutUint16(buf[6:], uint16(c.Arch))
	le.PutUint32(buf[8:], uint32(len(c.Kernels)))
	le.PutUint32(buf[12:], uint32(strOff))
	le.PutUint32(buf[16:], uint32(strSize))
	le.PutUint32(buf[20:], uint32(codeOff))
	le.PutUint32(buf[24:], uint32(codeSize))
	le.PutUint32(buf[28:], uint32(callOff))
	le.PutUint32(buf[32:], uint32(callCount))
	// buf[36:40] reserved, zero.

	var str, code, call int
	for i, k := range c.Kernels {
		off := headerSize + i*kernelEntrySize
		le.PutUint32(buf[off+0:], uint32(str))
		le.PutUint32(buf[off+4:], uint32(len(k.Name)))
		le.PutUint32(buf[off+8:], uint32(code))
		le.PutUint32(buf[off+12:], uint32(len(k.Code)))
		le.PutUint32(buf[off+16:], k.Flags)
		le.PutUint32(buf[off+20:], uint32(call))
		le.PutUint32(buf[off+24:], uint32(len(k.Launches)))
		str += copy(buf[strOff+str:], k.Name)
		code += copy(buf[codeOff+code:], k.Code)
		for _, tgt := range k.Launches {
			le.PutUint32(buf[callOff+4*call:], uint32(tgt))
			call++
		}
	}
	return buf, nil
}

// Parse decodes a cubin blob produced by Marshal.
func Parse(data []byte) (*Cubin, error) {
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil, fmt.Errorf("cubin: blob too short (%d bytes)", len(data))
	}
	if le.Uint32(data[0:]) != Magic {
		return nil, fmt.Errorf("cubin: bad magic %#x", le.Uint32(data[0:]))
	}
	if v := le.Uint16(data[4:]); v != FormatVersion {
		return nil, fmt.Errorf("cubin: unsupported version %d", v)
	}
	arch := gpuarch.SM(le.Uint16(data[6:]))
	count := int(le.Uint32(data[8:]))
	strOff := int(le.Uint32(data[12:]))
	strSize := int(le.Uint32(data[16:]))
	codeOff := int(le.Uint32(data[20:]))
	codeSize := int(le.Uint32(data[24:]))
	callOff := int(le.Uint32(data[28:]))
	callCount := int(le.Uint32(data[32:]))

	if count < 0 || count > 1<<20 {
		return nil, fmt.Errorf("cubin: implausible kernel count %d", count)
	}
	ktEnd := headerSize + count*kernelEntrySize
	if ktEnd > len(data) ||
		callOff+4*callCount > len(data) ||
		strOff+strSize > len(data) ||
		codeOff+codeSize > len(data) {
		return nil, fmt.Errorf("cubin: truncated blob (%d bytes)", len(data))
	}

	c := &Cubin{Arch: arch, Kernels: make([]Kernel, count)}
	for i := 0; i < count; i++ {
		off := headerSize + i*kernelEntrySize
		nameOff := int(le.Uint32(data[off+0:]))
		nameLen := int(le.Uint32(data[off+4:]))
		kCodeOff := int(le.Uint32(data[off+8:]))
		kCodeSize := int(le.Uint32(data[off+12:]))
		flags := le.Uint32(data[off+16:])
		cOff := int(le.Uint32(data[off+20:]))
		cCount := int(le.Uint32(data[off+24:]))

		if nameOff+nameLen > strSize || kCodeOff+kCodeSize > codeSize || cOff+cCount > callCount {
			return nil, fmt.Errorf("cubin: kernel %d references out-of-range data", i)
		}
		name := string(data[strOff+nameOff : strOff+nameOff+nameLen])
		// Zero-copy: kernel code aliases the blob (capacity-clamped). The
		// blob must stay alive and unmutated while the Cubin is in use;
		// every consumer treats Code as read-only.
		codeBytes := data[codeOff+kCodeOff : codeOff+kCodeOff+kCodeSize : codeOff+kCodeOff+kCodeSize]
		var launches []int
		if cCount > 0 {
			launches = make([]int, 0, cCount)
		}
		for j := 0; j < cCount; j++ {
			launches = append(launches, int(le.Uint32(data[callOff+4*(cOff+j):])))
		}
		c.Kernels[i] = Kernel{Name: name, Code: codeBytes, Flags: flags, Launches: launches}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("cubin: parsed blob invalid: %w", err)
	}
	return c, nil
}

// IsCubin reports whether data plausibly begins with a cubin header. It is
// used by module loaders to skip zeroed (compacted) payloads cheaply.
func IsCubin(data []byte) bool {
	return len(data) >= headerSize && binary.LittleEndian.Uint32(data) == Magic
}
