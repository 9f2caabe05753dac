package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// legacyManifest named each graph's live "*.snap" file in the layout
// earlier releases wrote, one "*.snap" file per snapshot. Only migrate
// reads it.
const legacyManifest = "MANIFEST"

// migrate converts an earlier release's data directory to one file per
// graph. The live set is the manifest's when it decodes, otherwise the
// highest valid generation per graph among the "*.snap" files, as those
// releases rescanned. Each live file is renamed to its new name unless
// that name exists, the other "*.snap" files are deleted, and the
// manifest goes last. A crash at any step leaves the manifest or legacy
// files behind, so the next Open finishes the job; the existence check
// keeps a superseded file from replacing a live one renamed before the
// crash.
func (s *Store) migrate() error {
	mpath := filepath.Join(s.dir, legacyManifest)
	data, err := os.ReadFile(mpath)
	hasManifest := err == nil
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: open %s: %w", s.dir, err)
	}
	legacy, err := s.list(".snap")
	if err != nil || !hasManifest && len(legacy) == 0 {
		return err
	}
	live, manifestOK := decodeLegacyManifest(data)
	if !manifestOK {
		live = s.rescanLegacy(legacy)
	}
	for name, file := range live {
		final := filepath.Join(s.dir, fileName(name))
		if _, err := os.Lstat(final); err == nil {
			continue
		}
		err := os.Rename(filepath.Join(s.dir, filepath.Base(file)), final)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: migrate %s: %w", file, err)
		}
	}
	for _, file := range legacy {
		if err := os.Remove(filepath.Join(s.dir, file)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: migrate %s: %w", file, err)
		}
	}
	s.syncDir()
	switch {
	case !hasManifest:
		return nil
	case manifestOK:
		err = os.Remove(mpath)
	default:
		s.quarantine(mpath) // kept for forensics, like any damaged file
	}
	s.syncDir()
	return err
}

// decodeLegacyManifest returns the graph → live file map of a manifest
// frame; ok is false when data is not one. Keys some releases added,
// such as a per-boot "epoch", are ignored.
func decodeLegacyManifest(data []byte) (live map[string]string, ok bool) {
	meta, payload, err := ReadFrame(bytes.NewReader(data))
	var doc struct {
		Graphs map[string]struct {
			File string `json:"file"`
		} `json:"graphs"`
	}
	if err != nil || meta.Kind != "manifest" || json.Unmarshal(payload, &doc) != nil {
		return nil, false
	}
	live = make(map[string]string, len(doc.Graphs))
	for name, ent := range doc.Graphs {
		live[name] = ent.File
	}
	return live, true
}

// rescanLegacy picks each graph's live file among legacy snapshot files:
// the highest generation among the frames that validate. Unreadable
// files are quarantined.
func (s *Store) rescanLegacy(files []string) map[string]string {
	live := map[string]string{}
	gens := map[string]uint64{}
	for _, file := range files {
		meta, _, err := readFrameFile(filepath.Join(s.dir, file))
		if err != nil {
			s.quarantine(filepath.Join(s.dir, file))
			continue
		}
		if gen, seen := gens[meta.Name]; !seen || meta.Generation > gen {
			live[meta.Name], gens[meta.Name] = file, meta.Generation
		}
	}
	return live
}
