package castore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// migrate moves a store of the older layout, one file per object at
// <kind>/<key> or, older still, <kind>/<xx>/<key>, into segments, oldest
// file first, then removes the old directories (and their tmp/): the only
// code that reads that layout. A file that is not a whole object is
// dropped and counted corrupt, as the old scan did; a key already in a
// segment keeps that entry. The new entries are synced before anything is
// removed, so a migration cut short runs again at the next Open.
func (s *Store) migrate(dirs []string) error {
	type file struct {
		id    objKey
		path  string
		mtime int64
	}
	var files []file
	add := func(kind, dir string, e os.DirEntry) {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && validName(e.Name()) {
			files = append(files, file{objKey{kind, e.Name()}, filepath.Join(dir, e.Name()), info.ModTime().UnixNano()})
		}
	}
	for _, kind := range dirs {
		if kind == "tmp" {
			continue // writes the older layout never finished
		}
		kdir := filepath.Join(s.dir, kind)
		ents, _ := os.ReadDir(kdir)
		for _, e := range ents {
			if !e.IsDir() {
				add(kind, kdir, e)
				continue
			}
			shard := filepath.Join(kdir, e.Name())
			sub, _ := os.ReadDir(shard)
			for _, f := range sub {
				add(kind, shard, f)
			}
		}
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		raw, err := os.ReadFile(f.path)
		var hdr header
		if err == nil {
			hdr, err = parseHeader(raw)
		}
		if err != nil || hdr.length != int64(len(raw))-headerSize {
			s.corrupt++
			continue
		}
		s.mu.Lock()
		if s.objects[f.id] == nil {
			seg, off, err := s.appendLocked(append(appendEntryName(nil, f.id.kind, f.id.key), raw...))
			if err != nil {
				s.mu.Unlock()
				return fmt.Errorf("castore: migrate %s/%s: %w", f.id.kind, f.id.key, err)
			}
			s.linkLocked(&object{id: f.id, size: hdr.length, seg: seg, off: off})
		}
		s.mu.Unlock()
	}
	s.SyncDirs()
	s.mu.Lock()
	for _, seg := range s.segs {
		if seg.synced < seg.size {
			s.mu.Unlock()
			return nil // not durable yet: keep the old files for the next Open
		}
	}
	s.mu.Unlock()
	for _, d := range dirs {
		if err := os.RemoveAll(filepath.Join(s.dir, d)); err != nil {
			return fmt.Errorf("castore: migrate: %w", err)
		}
	}
	return nil
}
