package negativa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"negativaml/internal/mlruntime"
)

// The profile record: one detection profile as one binary object — what
// the serving plane stores on disk, replicates and answers to peers.
//
//	magic      u32  ("NPF1")
//	version    u16  (1)
//	flags      u16  (reserved, zero)
//	install    uvarint length, bytes: the install fingerprint
//	workload   uvarint length, bytes: the workload identity
//	ints       6 × i64: Digest, ExecTime, PeakCPUBytes, PeakGPUBytes,
//	           Steps, Launches of the profiled run
//	name       uvarint length, bytes: Profile.Workload
//	text       uvarint: the bytes the two sections' strings decode to
//	strings    uvarint: how many strings the two sections hold
//	kernels    uvarint count, then per library in ascending name order:
//	           name, uvarint count, symbols in the profile's order
//	funcs      same, for UsedFuncs
//
// Library names and symbols are front-coded: each is the length of the
// prefix it shares with the previous string of its list (the library
// names, or one library's symbols), then the rest as uvarint length and
// bytes. Detection lists symbols sorted, and a library's symbols share
// long prefixes, so a record is about a third of its strings' bytes. The
// declared text and string counts let the decoder allocate once.
//
// The key (install, workload) comes first, so ProfileRecordKey reads it
// without decoding the rest. Integers are little-endian; every uvarint is
// in canonical form, every shared prefix is the longest there is, and
// library names strictly ascend, so an accepted record re-encodes to the
// same bytes.
const (
	profileMagic   uint32 = 0x3146504e // "NPF1" little-endian
	profileVersion uint16 = 1
	profileInts           = 6
	// maxProfileText bounds what a record's front-coded strings decode to.
	// A profile decodes to tens of KB; without a bound, a hostile record of
	// strings that each extend the last would decode quadratically.
	maxProfileText = 16 << 20
)

// EncodeProfile serializes one detection profile, stored under the
// (install fingerprint, workload identity) key, in the profile record
// format.
func EncodeProfile(install, workload string, p *Profile) ([]byte, error) {
	if p == nil || p.RunResult == nil {
		return nil, errors.New("negativa: profile record: profile has no run result")
	}
	kernels, funcs := sortedLibs(p.UsedKernels), sortedLibs(p.UsedFuncs)
	var sz sectionSizes
	sz.add(p.UsedKernels, kernels)
	sz.add(p.UsedFuncs, funcs)
	n := 8 + strSize(install) + strSize(workload) + 8*profileInts + strSize(p.Workload) +
		uvarintSize(uint64(sz.text)) + uvarintSize(uint64(sz.strings)) + sz.encoded
	buf := make([]byte, 8, n)
	le := binary.LittleEndian
	le.PutUint32(buf, profileMagic)
	le.PutUint16(buf[4:], profileVersion)
	buf = appendString(buf, install)
	buf = appendString(buf, workload)
	rr := p.RunResult
	for _, v := range [profileInts]int64{int64(rr.Digest), int64(rr.ExecTime), rr.PeakCPUBytes, rr.PeakGPUBytes, int64(rr.Steps), rr.Launches} {
		buf = le.AppendUint64(buf, uint64(v))
	}
	buf = appendString(buf, p.Workload)
	buf = binary.AppendUvarint(buf, uint64(sz.text))
	buf = binary.AppendUvarint(buf, uint64(sz.strings))
	buf = appendSection(buf, p.UsedKernels, kernels)
	return appendSection(buf, p.UsedFuncs, funcs), nil
}

func sortedLibs(m map[string][]string) []string {
	libs := make([]string, 0, len(m))
	for lib := range m {
		libs = append(libs, lib)
	}
	slices.Sort(libs)
	return libs
}

func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func uvarintSize(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// sharedPrefix is the length of the longest common prefix of a and b.
func sharedPrefix(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func appendFront(buf []byte, s, prev string) []byte {
	p := sharedPrefix(s, prev)
	buf = binary.AppendUvarint(buf, uint64(p))
	return appendString(buf, s[p:])
}

// sectionSizes totals what appendSection writes (encoded) and what the
// decoder rebuilds (text bytes in strings strings).
type sectionSizes struct{ encoded, text, strings int }

func (z *sectionSizes) front(s, prev string) {
	p := sharedPrefix(s, prev)
	z.encoded += uvarintSize(uint64(p)) + strSize(s[p:])
	z.text += len(s)
	z.strings++
}

func (z *sectionSizes) add(m map[string][]string, libs []string) {
	z.encoded += uvarintSize(uint64(len(libs)))
	prevLib := ""
	for _, lib := range libs {
		z.front(lib, prevLib)
		z.encoded += uvarintSize(uint64(len(m[lib])))
		prev := ""
		for _, s := range m[lib] {
			z.front(s, prev)
			prev = s
		}
		prevLib = lib
	}
}

func appendSection(buf []byte, m map[string][]string, libs []string) []byte {
	buf, prevLib := binary.AppendUvarint(buf, uint64(len(libs))), ""
	for _, lib := range libs {
		buf = appendFront(buf, lib, prevLib)
		buf = binary.AppendUvarint(buf, uint64(len(m[lib])))
		prev := ""
		for _, s := range m[lib] {
			buf = appendFront(buf, s, prev)
			prev = s
		}
		prevLib = lib
	}
	return buf
}

// ProfileRecordKey returns the (install fingerprint, workload identity) a
// profile record is stored under, read from its head; ok is false for
// bytes that do not start like a profile record.
func ProfileRecordKey(data []byte) (install, workload string, ok bool) {
	if profileHeaderCheck(data) != nil {
		return "", "", false
	}
	r := recordReader{b: data[8:]}
	ib, wb := r.bytes(), r.bytes()
	return string(ib), string(wb), r.err == nil
}

func profileHeaderCheck(data []byte) error {
	le := binary.LittleEndian
	if len(data) < 8 {
		return fmt.Errorf("negativa: profile record: truncated header (%d bytes)", len(data))
	}
	if m := le.Uint32(data); m != profileMagic {
		return fmt.Errorf("negativa: profile record: bad magic %#x", m)
	}
	if v := le.Uint16(data[4:]); v != profileVersion {
		return fmt.Errorf("negativa: profile record: unsupported version %d", v)
	}
	if fl := le.Uint16(data[6:]); fl != 0 {
		return fmt.Errorf("negativa: profile record: reserved flags %#x set", fl)
	}
	return nil
}

// DecodeProfile rebuilds the detection profile a record holds for the
// given (install fingerprint, workload identity). Corrupt input — bad
// magic or version, truncation, a length or count past the end, a shared
// prefix longer than the previous string or shorter than the longest,
// library names out of order, trailing bytes — and a record stored under
// another key are errors, never a panic: the decoder is a fuzz target, and
// stored and peer-sent bytes are untrusted.
func DecodeProfile(data []byte, install, workload string) (*Profile, error) {
	if err := profileHeaderCheck(data); err != nil {
		return nil, err
	}
	r := &recordReader{b: data[8:]}
	if string(r.bytes()) != install || string(r.bytes()) != workload {
		if r.err != nil {
			return nil, r.err
		}
		return nil, errors.New("negativa: profile record: stored under another key")
	}
	var v [profileInts]int64
	for i := range v {
		v[i] = int64(r.u64())
	}
	name := string(r.bytes())
	text, strs := r.uvarint("text length"), r.uvarint("string count")
	// A string takes at least two bytes (prefix, length).
	if r.err != nil || text > maxProfileText || strs > uint64(len(r.b)-r.off)/2 {
		r.fail("section sizes")
		return nil, r.err
	}
	d := sections{r: r, all: make([]string, 0, strs)}
	d.text.Grow(int(text))
	d.section()
	d.section()
	if r.err != nil {
		return nil, r.err
	}
	if d.text.Len() != int(text) || len(d.all) != int(strs) {
		return nil, errors.New("negativa: profile record: sections disagree with their declared sizes")
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("negativa: profile record: %d trailing bytes", len(r.b)-r.off)
	}
	p := &Profile{
		Workload: name,
		RunResult: &mlruntime.Result{
			Digest: uint64(v[0]), ExecTime: time.Duration(v[1]),
			PeakCPUBytes: v[2], PeakGPUBytes: v[3], Steps: int(v[4]), Launches: v[5],
		},
	}
	p.UsedKernels, p.UsedFuncs = d.maps()
	return p, nil
}

// sections decodes a profile record's two library sections. Front-coded
// strings are rebuilt into one builder of the declared size: every library
// name and symbol is a substring of its one buffer.
type sections struct {
	r     *recordReader
	text  strings.Builder
	all   []string // every string, in record order
	shape []int    // per section its library count, then per library its symbol count
}

// front reads one front-coded string whose list's previous string is prev.
func (d *sections) front(prev string) string {
	p := d.r.uvarint("shared prefix")
	rest := d.r.bytes()
	if d.r.err != nil {
		return ""
	}
	if p > uint64(len(prev)) || len(rest) > 0 && p < uint64(len(prev)) && rest[0] == prev[p] {
		d.r.err = errors.New("negativa: profile record: shared prefix is not the longest")
		return ""
	}
	start := d.text.Len()
	if start+int(p)+len(rest) > d.text.Cap() || len(d.all) == cap(d.all) {
		d.r.err = errors.New("negativa: profile record: sections exceed their declared sizes")
		return ""
	}
	d.text.WriteString(prev[:p])
	d.text.Write(rest)
	str := d.text.String()[start:]
	d.all = append(d.all, str)
	return str
}

func (d *sections) section() {
	n := d.r.uvarint("library count")
	// A library takes at least three bytes (prefix, length, count) and a
	// symbol two, so an honest count never exceeds what is left.
	if d.r.err != nil || n > uint64(len(d.r.b)-d.r.off)/3 {
		d.r.fail("library count")
		return
	}
	d.shape = append(d.shape, int(n))
	prevLib := ""
	for i := 0; i < int(n) && d.r.err == nil; i++ {
		lib := d.front(prevLib)
		if i > 0 && d.r.err == nil && lib <= prevLib {
			d.r.err = fmt.Errorf("negativa: profile record: library %q out of order", lib)
		}
		prevLib = lib
		m := d.r.uvarint("symbol count")
		if d.r.err != nil || m > uint64(len(d.r.b)-d.r.off)/2 {
			d.r.fail("symbol count")
			return
		}
		d.shape = append(d.shape, int(m))
		prev := ""
		for j := 0; j < int(m) && d.r.err == nil; j++ {
			prev = d.front(prev)
		}
	}
}

// maps builds the two sections' maps once both decoded cleanly. Each
// library's symbols are a capacity-capped window of the one string slice.
func (d *sections) maps() (kernels, funcs map[string][]string) {
	k, sh := 0, 0
	build := func() map[string][]string {
		n := d.shape[sh]
		sh++
		m := make(map[string][]string, n)
		for i := 0; i < n; i++ {
			lib, c := d.all[k], d.shape[sh]
			var syms []string
			if c > 0 {
				syms = d.all[k+1 : k+1+c : k+1+c]
			}
			m[lib] = syms
			k, sh = k+1+c, sh+1
		}
		return m
	}
	kernels = build()
	return kernels, build()
}
