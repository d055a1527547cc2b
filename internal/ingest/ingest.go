package ingest

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
	"negativaml/internal/plan"
)

// Class is the classification assigned to every walked file.
type Class string

// File classes. Every file the walk encounters lands in exactly one.
const (
	// ClassSharedObject is an ELF64 shared library that parsed cleanly.
	ClassSharedObject Class = "shared-object"
	// ClassManifest is the tree root's install.json runtime-metadata file.
	ClassManifest Class = "manifest"
	// ClassScript is a shebang-prefixed text file.
	ClassScript Class = "script"
	// ClassData is anything else readable that is not ELF — including
	// non-ELF files hiding behind .so names.
	ClassData Class = "data"
	// ClassCorruptELF starts with the ELF magic but fails to parse
	// (truncated header, bad section table, hostile dynamic section, …).
	ClassCorruptELF Class = "corrupt-elf"
	// ClassUnreadable could not be read; Err holds the cause.
	ClassUnreadable Class = "unreadable"
	// ClassDanglingSymlink points at a path that does not exist.
	ClassDanglingSymlink Class = "dangling-symlink"
	// ClassSymlinkDir is a symlink to a directory. The walk records it but
	// never descends — that is what makes symlink loops terminate.
	ClassSymlinkDir Class = "symlink-dir"
)

// Walk bounds. Trees beyond these are rejected, not truncated: a silent cap
// would read as "covered everything" when it didn't.
const (
	DefaultMaxFiles = 65536
	DefaultMaxDepth = 64
)

// Options configure a Tree walk.
type Options struct {
	// Entries explicitly roots the dependency closure, by soname or file
	// name. Empty means the roots are the tree's entry libraries: every
	// shared object no other shared object names in DT_NEEDED.
	Entries []string
	// MaxFiles caps the number of walked files (default DefaultMaxFiles).
	MaxFiles int
	// MaxDepth caps directory nesting (default DefaultMaxDepth).
	MaxDepth int
}

// FileReport records one walked file's classification.
type FileReport struct {
	// Path is slash-separated and relative to the ingested root.
	Path  string `json:"path"`
	Class Class  `json:"class"`
	Size  int64  `json:"size,omitempty"`
	// Err is the classification failure for corrupt-elf and unreadable.
	Err string `json:"err,omitempty"`
	// Soname, Needed, and Machine are set for shared objects.
	Soname  string   `json:"soname,omitempty"`
	Needed  []string `json:"needed,omitempty"`
	Machine uint16   `json:"machine,omitempty"`
	// InClosure reports whether the shared object is in the dependency
	// closure of the roots.
	InClosure bool `json:"in_closure,omitempty"`
}

// Result is a classified tree with its resolved dependency closure.
type Result struct {
	// Dir is the ingested root.
	Dir string
	// Files holds one report per walked file, in walk (sorted-path) order.
	Files []FileReport
	// Libs maps each shared object's canonical name (its file name) to the
	// parsed library.
	Libs map[string]*elfx.Library
	// Roots are the closure roots, in closure order.
	Roots []string
	// Closure lists canonical names reachable from the roots, roots first,
	// in deterministic BFS order.
	Closure []string
	// Unresolved maps DT_NEEDED names no tree library provides to the
	// canonical names of the libraries that want them — system libraries
	// like libc live here on real trees.
	Unresolved map[string][]string
	// Manifest is the tree root's parsed install.json, nil when absent.
	Manifest *mlframework.Manifest
}

// readFile returns as much of a file as classification needs: all of it
// when it starts with the ELF magic, its first four bytes (fewer for a
// shorter file) otherwise. Tests swap it to inject read failures: the suite
// runs as root, where permission bits cannot produce them. Classification
// calls it from several goroutines at once, so a replacement must be safe for
// concurrent use, and must be swapped only while no Tree call is running.
var readFile = readMagicOrELF

var elfMagic = []byte{0x7f, 'E', 'L', 'F'}

// readMagicOrELF opens the file once: a tree's weights, datasets and scripts
// are classified from their magic without being read, and a shared object is
// read through the handle its magic was read from.
func readMagicOrELF(name string) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(elfMagic))
	n, err := io.ReadFull(f, magic)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return magic[:n], nil
	}
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(magic, elfMagic) {
		return magic, nil
	}
	// The rest, as os.ReadFile reads it: the stat'ed size plus one byte, so
	// that the read which finds EOF needs no regrowth, and grown to whatever
	// the file turns out to hold if the size was wrong.
	size := len(magic)
	if fi, err := f.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() && int(fi.Size()) > size {
		size = int(fi.Size())
	}
	data := append(make([]byte, 0, size+1), magic...)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Tree walks dir, classifies every file, and resolves the DT_NEEDED
// dependency closure. It returns an error only for defects of the tree as a
// whole (unreadable root, bound overflow, ambiguous sonames, unknown
// explicit entries); per-file anomalies are classified in Result.Files.
//
// The walk only lists: it reads directory entries, so MaxFiles and MaxDepth
// reject an oversized tree before a byte of file content is read. The listed
// files are then classified — sniffed, read and parsed — across CPUs while
// install.json decodes beside them, and registered in walk order, so the
// result and every error are those of a one-file-at-a-time walk.
func Tree(dir string, opt Options) (*Result, error) {
	if opt.MaxFiles <= 0 {
		opt.MaxFiles = DefaultMaxFiles
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = DefaultMaxDepth
	}
	res := &Result{
		Dir:        dir,
		Libs:       make(map[string]*elfx.Library),
		Unresolved: make(map[string][]string),
	}
	w := &walker{opt: opt, res: res}
	if err := w.dir(dir, "", 0); err != nil {
		return nil, err
	}

	// Task 0 is the manifest decode — the longest single task, so it starts
	// first; task i+1 classifies w.pending[i].
	var manifestErr error
	libs := make([]*elfx.Library, len(w.pending))
	plan.Each(1+len(w.pending), func(i int) {
		if i == 0 {
			if w.manifest {
				res.Manifest, manifestErr = mlframework.ReadManifest(dir)
			}
			return
		}
		p := w.pending[i-1]
		libs[i-1] = classify(p.abs, &res.Files[p.report])
	})

	for i, lib := range libs {
		if lib == nil {
			continue
		}
		if err := w.register(lib, res.Files[w.pending[i].report].Path); err != nil {
			return nil, err
		}
	}
	if err := resolve(res, opt.Entries); err != nil {
		return nil, err
	}
	if manifestErr != nil {
		return nil, fmt.Errorf("ingest: %w", manifestErr)
	}
	return res, nil
}

// walker lists a tree. Entries the listing alone classifies (symlinked
// directories, dangling links, unreadable directories, the manifest) get
// their final report; every other file gets a report holding its path and
// size and a pending entry for classify to complete.
type walker struct {
	opt Options
	res *Result
	// pending are the files whose class depends on their content.
	pending []pendingFile
	// manifest records that the root holds an install.json.
	manifest bool
	// aliases maps every name a library answers to — file name and
	// DT_SONAME — to its canonical (file) name, for closure resolution.
	aliases map[string]string
}

type pendingFile struct {
	abs    string
	report int // index into Result.Files
}

func (w *walker) dir(abs, rel string, depth int) error {
	if depth > w.opt.MaxDepth {
		return fmt.Errorf("ingest: %s: directory nesting exceeds %d levels", rel, w.opt.MaxDepth)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		if rel == "" {
			return fmt.Errorf("ingest: %w", err)
		}
		w.record(FileReport{Path: rel, Class: ClassUnreadable, Err: err.Error()})
		return nil
	}
	for _, e := range entries { // ReadDir sorts by name: the walk is deterministic
		childAbs := filepath.Join(abs, e.Name())
		childRel := e.Name()
		if rel != "" {
			childRel = rel + "/" + e.Name()
		}
		switch {
		case e.Type()&fs.ModeSymlink != 0:
			// Resolve through the link. Directories are recorded but never
			// descended: a tree can alias its own ancestors into a loop, and
			// refusing to follow is what keeps the walk finite.
			fi, err := os.Stat(childAbs)
			switch {
			case err != nil:
				w.record(FileReport{Path: childRel, Class: ClassDanglingSymlink, Err: err.Error()})
			case fi.IsDir():
				w.record(FileReport{Path: childRel, Class: ClassSymlinkDir})
			default:
				w.file(childAbs, childRel, fi.Size(), depth == 0)
			}
		case e.IsDir():
			if err := w.dir(childAbs, childRel, depth+1); err != nil {
				return err
			}
		default:
			var size int64
			if fi, err := e.Info(); err == nil {
				size = fi.Size()
			}
			w.file(childAbs, childRel, size, depth == 0)
		}
		if len(w.res.Files) > w.opt.MaxFiles {
			return fmt.Errorf("ingest: tree exceeds %d files", w.opt.MaxFiles)
		}
	}
	return nil
}

// file lists one regular file (possibly behind a symlink).
func (w *walker) file(abs, rel string, size int64, atRoot bool) {
	if atRoot && filepath.Base(rel) == mlframework.ManifestName {
		w.manifest = true
		w.record(FileReport{Path: rel, Size: size, Class: ClassManifest})
		return
	}
	w.pending = append(w.pending, pendingFile{abs: abs, report: len(w.res.Files)})
	w.record(FileReport{Path: rel, Size: size})
}

func (w *walker) record(rep FileReport) { w.res.Files = append(w.res.Files, rep) }

// classify completes the report of one listed file from its content and
// returns the parsed library when it is a shared object. It touches nothing
// but *rep, so calls on different files run concurrently.
func classify(abs string, rep *FileReport) *elfx.Library {
	data, err := readFile(abs)
	switch {
	case err != nil:
		rep.Class, rep.Err = ClassUnreadable, err.Error()
	case bytes.HasPrefix(data, elfMagic):
		lib, err := elfx.Parse(filepath.Base(rep.Path), data)
		if err != nil {
			rep.Class, rep.Err = ClassCorruptELF, err.Error()
			break
		}
		rep.Class = ClassSharedObject
		rep.Soname, rep.Needed, rep.Machine = lib.Soname, lib.Needed, lib.Machine
		return lib
	case bytes.HasPrefix(data, []byte("#!")):
		rep.Class = ClassScript
	default:
		rep.Class = ClassData
	}
	return nil
}

// register indexes a parsed shared object under its file name and soname.
// Two files answering to the same name make every DT_NEEDED edge to that
// name ambiguous, which would corrupt the closure — that rejects the tree.
func (w *walker) register(lib *elfx.Library, rel string) error {
	if w.aliases == nil {
		w.aliases = make(map[string]string)
	}
	canon := lib.Name // base file name
	if prev, dup := w.aliases[canon]; dup && prev != canon {
		return fmt.Errorf("ingest: %s: name %q already provided by %s", rel, canon, prev)
	}
	if _, dup := w.res.Libs[canon]; dup {
		return fmt.Errorf("ingest: %s: duplicate library file name %q", rel, canon)
	}
	w.res.Libs[canon] = lib
	w.aliases[canon] = canon
	if lib.Soname != "" && lib.Soname != canon {
		if prev, dup := w.aliases[lib.Soname]; dup {
			return fmt.Errorf("ingest: %s: soname %q already provided by %s", rel, lib.Soname, prev)
		}
		w.aliases[lib.Soname] = canon
	}
	return nil
}

// resolve computes closure roots and the reachable set over the DT_NEEDED
// graph, then back-fills InClosure on the file reports.
func resolve(res *Result, entries []string) error {
	aliases := make(map[string]string, len(res.Libs))
	for name, lib := range res.Libs {
		aliases[name] = name
		if lib.Soname != "" {
			aliases[lib.Soname] = name
		}
	}

	var roots []string
	if len(entries) > 0 {
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			canon, ok := aliases[e]
			if !ok {
				return fmt.Errorf("ingest: entry %q names no library in the tree", e)
			}
			if !seen[canon] {
				seen[canon] = true
				roots = append(roots, canon)
			}
		}
	} else {
		// Entry libraries: shared objects nothing else in the tree needs.
		// Python extension modules and a framework's core library are both
		// loader-opened roots, not DT_NEEDED targets.
		wanted := make(map[string]bool)
		for _, lib := range res.Libs {
			for _, n := range lib.Needed {
				if canon, ok := aliases[n]; ok && canon != lib.Name {
					wanted[canon] = true
				}
			}
		}
		for name := range res.Libs {
			if !wanted[name] {
				roots = append(roots, name)
			}
		}
		sort.Strings(roots)
	}

	// BFS from the roots; the visited set makes DT_NEEDED cycles terminate.
	visited := make(map[string]bool, len(res.Libs))
	queue := append([]string(nil), roots...)
	for _, r := range roots {
		visited[r] = true
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		res.Closure = append(res.Closure, name)
		for _, n := range res.Libs[name].Needed {
			canon, ok := aliases[n]
			if !ok {
				res.Unresolved[n] = append(res.Unresolved[n], name)
				continue
			}
			if !visited[canon] {
				visited[canon] = true
				queue = append(queue, canon)
			}
		}
	}
	res.Roots = roots
	for i := range res.Files {
		if res.Files[i].Class == ClassSharedObject {
			res.Files[i].InClosure = visited[filepath.Base(res.Files[i].Path)]
		}
	}
	return nil
}

// Install materializes the ingested tree as a debloatable install. The tree
// must carry an install.json manifest: profiling runs workloads against the
// install, and only the manifest knows the load order, init calls, and
// family routing that make the libraries runnable. Every manifest library
// must be a classified shared object inside the dependency closure — a
// manifest naming bytes the closure cannot reach is a broken tree, not a
// smaller install.
func (r *Result) Install() (*mlframework.Install, error) {
	if r.Manifest == nil {
		return nil, fmt.Errorf("ingest: %s: no %s manifest — the tree is classifiable but not runnable", r.Dir, mlframework.ManifestName)
	}
	inClosure := make(map[string]bool, len(r.Closure))
	for _, name := range r.Closure {
		inClosure[name] = true
	}
	for _, name := range r.Manifest.LibNames {
		if _, ok := r.Libs[name]; !ok {
			return nil, fmt.Errorf("ingest: manifest names %s but the tree has no such library", name)
		}
		if !inClosure[name] {
			return nil, fmt.Errorf("ingest: manifest names %s but the dependency closure does not reach it", name)
		}
	}
	return r.Manifest.Install(r.Libs)
}

// SharedObjects counts the classified shared objects.
func (r *Result) SharedObjects() int {
	n := 0
	for _, f := range r.Files {
		if f.Class == ClassSharedObject {
			n++
		}
	}
	return n
}
