package elfx

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// ELF constants (subset needed for ET_DYN x86-64 libraries).
const (
	elfHeaderSize     = 64
	progHeaderSize    = 56
	sectionHeaderSize = 64
	symEntrySize      = 24

	etDyn = 3

	ptLoad = 1
	pfX    = 1
	pfW    = 2
	pfR    = 4

	shtNull     = 0
	shtProgbits = 1
	shtSymtab   = 2
	shtStrtab   = 3
	shtDynamic  = 6
	shtDynsym   = 11

	dynEntrySize = 16
	dtNull       = 0
	dtNeeded     = 1
	dtSoname     = 14

	shfWrite     = 1
	shfAlloc     = 2
	shfExecinstr = 4

	sttFunc   = 2
	stbGlobal = 1
)

// FatbinSection is the name of the GPU-code section in ML shared libraries.
const FatbinSection = ".nv_fatbin"

// Machine architectures accepted by the builder and reported by the reader.
const (
	EMX8664   = 62  // x86-64
	EMAarch64 = 183 // 64-bit ARM
)

// FuncSpec describes one CPU function to place in .text.
type FuncSpec struct {
	Name string
	Size int
}

// Builder assembles an ELF64 shared library.
type Builder struct {
	soname  string
	machine uint16
	needed  []string
	funcs   []FuncSpec
	fatbin  []byte
	rodata  []byte
	data    []byte
}

// NewBuilder returns a Builder for a library with the given soname.
func NewBuilder(soname string) *Builder {
	return &Builder{soname: soname, machine: EMX8664}
}

// AddNeeded records a DT_NEEDED dependency on the named library. Order is
// preserved in the emitted .dynamic section.
func (b *Builder) AddNeeded(soname string) { b.needed = append(b.needed, soname) }

// SetMachine overrides the ELF header's e_machine (default EMX8664).
func (b *Builder) SetMachine(m uint16) { b.machine = m }

// AddFunction appends a CPU function of the given code size to .text.
// Sizes below 16 bytes are rounded up to 16 so every function body is
// distinguishable from zeroed (compacted) code.
func (b *Builder) AddFunction(name string, size int) {
	if size < 16 {
		size = 16
	}
	b.funcs = append(b.funcs, FuncSpec{Name: name, Size: size})
}

// SetFatbin installs the serialized fatbin as the .nv_fatbin section.
func (b *Builder) SetFatbin(blob []byte) { b.fatbin = blob }

// SetRodata installs read-only data.
func (b *Builder) SetRodata(blob []byte) { b.rodata = blob }

// SetData installs writable data.
func (b *Builder) SetData(blob []byte) { b.data = blob }

// fillCode writes a deterministic, never-zero code pattern derived from the
// function name, so compaction (zeroing) is detectable and builds are
// reproducible.
func fillCode(dst []byte, name string) {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := h.Sum64()
	for i := range dst {
		v := byte(seed >> (uint(i%8) * 8))
		if v == 0 {
			v = 0x90 // nop
		}
		dst[i] = v
	}
}

func align(n, a int64) int64 {
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// Build serializes the library. Section virtual addresses equal file offsets
// (a single PT_LOAD maps the whole file), so symbol values are directly file
// offsets — the property the compactor relies on to keep memory addresses
// valid while zeroing file ranges (paper §3.2, Compaction).
func (b *Builder) Build() ([]byte, error) {
	if b.soname == "" {
		return nil, fmt.Errorf("elfx: empty soname")
	}
	names := make(map[string]bool, len(b.funcs))
	for _, f := range b.funcs {
		if f.Name == "" {
			return nil, fmt.Errorf("elfx: empty function name")
		}
		if names[f.Name] {
			return nil, fmt.Errorf("elfx: duplicate function %q", f.Name)
		}
		names[f.Name] = true
	}

	// ---- String tables ----
	// .strtab holds \0 then function names. .dynstr extends that layout with
	// the soname and DT_NEEDED names, so dynsym name offsets are valid in both.
	strtab := []byte{0}
	nameOff := make([]uint32, len(b.funcs))
	for i, f := range b.funcs {
		nameOff[i] = uint32(len(strtab))
		strtab = append(strtab, f.Name...)
		strtab = append(strtab, 0)
	}
	dynstr := append([]byte(nil), strtab...)
	sonameOff := uint64(len(dynstr))
	dynstr = append(dynstr, b.soname...)
	dynstr = append(dynstr, 0)
	neededOff := make([]uint64, len(b.needed))
	for i, n := range b.needed {
		if n == "" {
			return nil, fmt.Errorf("elfx: empty DT_NEEDED name")
		}
		neededOff[i] = uint64(len(dynstr))
		dynstr = append(dynstr, n...)
		dynstr = append(dynstr, 0)
	}

	// ---- .dynamic ----
	// DT_SONAME, one DT_NEEDED per dependency, DT_NULL terminator.
	dynamic := make([]byte, (2+len(b.needed))*dynEntrySize)
	le := binary.LittleEndian
	le.PutUint64(dynamic[0:], dtSoname)
	le.PutUint64(dynamic[8:], sonameOff)
	for i := range b.needed {
		e := dynamic[(1+i)*dynEntrySize:]
		le.PutUint64(e[0:], dtNeeded)
		le.PutUint64(e[8:], neededOff[i])
	}

	shnames := []string{"", ".text", ".rodata", ".data", FatbinSection, ".dynstr", ".dynsym", ".dynamic", ".strtab", ".symtab", ".shstrtab"}
	shstrtab := []byte{0}
	shNameOff := make([]uint32, len(shnames))
	for i, n := range shnames {
		if i == 0 {
			continue
		}
		shNameOff[i] = uint32(len(shstrtab))
		shstrtab = append(shstrtab, n...)
		shstrtab = append(shstrtab, 0)
	}

	// ---- .text ----
	var textSize int64
	funcOff := make([]int64, len(b.funcs))
	for i, f := range b.funcs {
		funcOff[i] = textSize
		textSize += align(int64(f.Size), 16)
	}

	// ---- Symbol tables ----
	// .symtab holds every function (entry 0 is the mandatory null symbol).
	// .dynsym exports only every eighth function, as real libraries hide
	// internal symbols and export a curated surface.
	symCount := 1 + len(b.funcs)
	symtabSize := int64(symCount * symEntrySize)
	var exported []int
	for i := range b.funcs {
		if i%8 == 0 {
			exported = append(exported, i)
		}
	}
	dynsymSize := int64((1 + len(exported)) * symEntrySize)

	// ---- Layout ----
	off := int64(elfHeaderSize + progHeaderSize)
	textOff := align(off, 16)
	rodataOff := align(textOff+textSize, 16)
	dataOff := align(rodataOff+int64(len(b.rodata)), 16)
	fatbinOff := align(dataOff+int64(len(b.data)), 16)
	dynstrOff := align(fatbinOff+int64(len(b.fatbin)), 8)
	dynsymOff := align(dynstrOff+int64(len(dynstr)), 8)
	dynamicOff := dynsymOff + dynsymSize
	strtabOff := dynamicOff + int64(len(dynamic))
	symtabOff := align(strtabOff+int64(len(strtab)), 8)
	shstrtabOff := symtabOff + symtabSize
	shdrOff := align(shstrtabOff+int64(len(shstrtab)), 8)
	total := shdrOff + int64(len(shnames))*sectionHeaderSize

	buf := make([]byte, total)

	// ---- ELF header ----
	copy(buf[0:], []byte{0x7f, 'E', 'L', 'F', 2 /*64-bit*/, 1 /*LE*/, 1 /*version*/})
	le.PutUint16(buf[16:], etDyn)
	le.PutUint16(buf[18:], b.machine)
	le.PutUint32(buf[20:], 1)
	le.PutUint64(buf[24:], 0)                      // e_entry
	le.PutUint64(buf[32:], elfHeaderSize)          // e_phoff
	le.PutUint64(buf[40:], uint64(shdrOff))        // e_shoff
	le.PutUint32(buf[48:], 0)                      // e_flags
	le.PutUint16(buf[52:], elfHeaderSize)          // e_ehsize
	le.PutUint16(buf[54:], progHeaderSize)         // e_phentsize
	le.PutUint16(buf[56:], 1)                      // e_phnum
	le.PutUint16(buf[58:], sectionHeaderSize)      // e_shentsize
	le.PutUint16(buf[60:], uint16(len(shnames)))   // e_shnum
	le.PutUint16(buf[62:], uint16(len(shnames)-1)) // e_shstrndx

	// ---- Program header: one PT_LOAD mapping the whole file, vaddr==offset ----
	ph := buf[elfHeaderSize:]
	le.PutUint32(ph[0:], ptLoad)
	le.PutUint32(ph[4:], pfR|pfW|pfX)
	le.PutUint64(ph[8:], 0)              // p_offset
	le.PutUint64(ph[16:], 0)             // p_vaddr
	le.PutUint64(ph[24:], 0)             // p_paddr
	le.PutUint64(ph[32:], uint64(total)) // p_filesz
	le.PutUint64(ph[40:], uint64(total)) // p_memsz
	le.PutUint64(ph[48:], 0x1000)        // p_align

	// ---- Section contents ----
	text := buf[textOff : textOff+textSize]
	for i, f := range b.funcs {
		fillCode(text[funcOff[i]:funcOff[i]+int64(f.Size)], f.Name)
	}
	copy(buf[rodataOff:], b.rodata)
	copy(buf[dataOff:], b.data)
	copy(buf[fatbinOff:], b.fatbin)
	copy(buf[dynstrOff:], dynstr)
	copy(buf[dynamicOff:], dynamic)
	copy(buf[strtabOff:], strtab)
	copy(buf[shstrtabOff:], shstrtab)

	writeSym := func(symOff int64, slot, i int) {
		s := buf[symOff+int64((slot+1)*symEntrySize):]
		le.PutUint32(s[0:], nameOff[i])
		s[4] = stbGlobal<<4 | sttFunc // st_info
		s[5] = 0                      // st_other
		le.PutUint16(s[6:], 1)        // st_shndx = .text
		le.PutUint64(s[8:], uint64(textOff+funcOff[i]))
		le.PutUint64(s[16:], uint64(b.funcs[i].Size))
	}
	for slot, i := range exported {
		writeSym(dynsymOff, slot, i)
	}
	for i := range b.funcs {
		writeSym(symtabOff, i, i)
	}

	// ---- Section headers ----
	type sh struct {
		nameIdx             int
		typ, flags          uint32
		off, size           int64
		link, info, entsize uint32
		addralign           uint64
	}
	sections := []sh{
		{0, shtNull, 0, 0, 0, 0, 0, 0, 0},
		{1, shtProgbits, shfAlloc | shfExecinstr, textOff, textSize, 0, 0, 0, 16},
		{2, shtProgbits, shfAlloc, rodataOff, int64(len(b.rodata)), 0, 0, 0, 16},
		{3, shtProgbits, shfAlloc | shfWrite, dataOff, int64(len(b.data)), 0, 0, 0, 16},
		{4, shtProgbits, shfAlloc, fatbinOff, int64(len(b.fatbin)), 0, 0, 0, 16},
		{5, shtStrtab, shfAlloc, dynstrOff, int64(len(dynstr)), 0, 0, 0, 1},
		{6, shtDynsym, shfAlloc, dynsymOff, dynsymSize, 5, 1, symEntrySize, 8},
		{7, shtDynamic, shfAlloc | shfWrite, dynamicOff, int64(len(dynamic)), 5, 0, dynEntrySize, 8},
		{8, shtStrtab, 0, strtabOff, int64(len(strtab)), 0, 0, 0, 1},
		{9, shtSymtab, 0, symtabOff, symtabSize, 8, 1, symEntrySize, 8},
		{10, shtStrtab, 0, shstrtabOff, int64(len(shstrtab)), 0, 0, 0, 1},
	}
	for i, s := range sections {
		hdr := buf[shdrOff+int64(i*sectionHeaderSize):]
		le.PutUint32(hdr[0:], shNameOff[s.nameIdx])
		le.PutUint32(hdr[4:], s.typ)
		le.PutUint64(hdr[8:], uint64(s.flags))
		if s.flags&shfAlloc != 0 {
			le.PutUint64(hdr[16:], uint64(s.off)) // sh_addr == file offset
		}
		le.PutUint64(hdr[24:], uint64(s.off))
		le.PutUint64(hdr[32:], uint64(s.size))
		le.PutUint32(hdr[40:], s.link)
		le.PutUint32(hdr[44:], s.info)
		le.PutUint64(hdr[48:], s.addralign)
		le.PutUint64(hdr[56:], uint64(s.entsize))
	}
	return buf, nil
}
