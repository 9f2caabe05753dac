package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// manifestName is the file naming the live snapshot per graph. It is
// written last on every Save, so it is the single source of truth for
// which snapshot files are current.
const manifestName = "MANIFEST"

// manifestEntry records one graph's live snapshot.
type manifestEntry struct {
	File       string `json:"file"`
	Generation uint64 `json:"generation"`
}

// manifestDoc is the manifest payload. Decoding ignores unknown keys, so
// a manifest written by an older release, with keys since retired, still
// opens.
type manifestDoc struct {
	Graphs map[string]manifestEntry `json:"graphs"`
}

// Stats aggregates store activity counters, rendered by /metrics.
type Stats struct {
	Graphs         int   `json:"graphs"`          // entries in the manifest
	Snapshots      int64 `json:"snapshots"`       // successful Save calls
	SnapshotBytes  int64 `json:"snapshot_bytes"`  // frame bytes durably written
	SnapshotErrors int64 `json:"snapshot_errors"` // failed Save attempts
	SnapshotNanos  int64 `json:"snapshot_nanos"`  // cumulative snapshot wall time
	Loads          int64 `json:"loads"`           // snapshots read back successfully
	Quarantined    int64 `json:"quarantined"`     // files renamed to *.corrupt
}

// Store manages the snapshot files and manifest under one data directory.
// It holds no policy about which snapshot is newer: a caller that needs
// one passes a commit veto to SaveIf. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	mu       sync.Mutex               // guards manifest (map + file) and file shuffling
	manifest map[string]manifestEntry //grblint:guardedby mu

	snapshots      atomic.Int64
	snapshotBytes  atomic.Int64
	snapshotErrors atomic.Int64
	snapshotNanos  atomic.Int64
	loads          atomic.Int64
	quarantined    atomic.Int64
}

// Open creates (if needed) the data directory and reads its manifest. A
// missing manifest is normal on first boot; an unreadable or corrupt one
// is quarantined and the directory is rescanned, adopting the
// highest-generation valid snapshot per graph, so a damaged manifest
// never strands good snapshot files.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, manifest: map[string]manifestEntry{}}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := s.rescan(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	default:
		meta, payload, ferr := ReadFrame(bytes.NewReader(data))
		var doc manifestDoc
		if ferr == nil && meta.Kind == "manifest" {
			ferr = json.Unmarshal(payload, &doc)
		} else if ferr == nil {
			ferr = corruptf("manifest frame has kind %q", meta.Kind)
		}
		if ferr != nil {
			s.quarantine(path)
			if err := s.rescan(); err != nil {
				return nil, err
			}
			break
		}
		if doc.Graphs != nil {
			s.manifest = doc.Graphs
		}
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// rescan rebuilds the manifest from the snapshot files themselves: every
// *.snap frame that validates contributes its (name, generation), the
// highest generation per name wins, and anything unreadable is
// quarantined. Called when the manifest is missing or corrupt.
func (s *Store) rescan() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.snap"))
	if err != nil {
		return fmt.Errorf("store: rescan %s: %w", s.dir, err)
	}
	sort.Strings(paths)
	found := map[string]manifestEntry{}
	for _, p := range paths {
		meta, _, err := readFrameFile(p)
		if err != nil {
			s.quarantine(p)
			continue
		}
		if cur, ok := found[meta.Name]; !ok || meta.Generation > cur.Generation {
			found[meta.Name] = manifestEntry{File: filepath.Base(p), Generation: meta.Generation}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.manifest = found
	return s.writeManifestLocked()
}

// Save durably writes one snapshot frame and repoints the manifest at
// it, unconditionally.
func (s *Store) Save(meta Meta, payload []byte) (written bool, err error) {
	return s.SaveIf(meta, payload, nil, nil)
}

// SaveIf is Save with a commit veto. The frame is written and fsynced to
// a temp file first; then, under the store mutex, ok (when non-nil)
// decides whether it may become live. A false return discards the temp
// file, so a vetoed write never touches a live file or the manifest.
// Otherwise the frame is renamed into place, the manifest repointed, and
// committed (when non-nil) runs, still under the mutex, so a caller can
// record what is durable atomically with the repoint.
func (s *Store) SaveIf(meta Meta, payload []byte, ok func() bool, committed func()) (written bool, err error) {
	defer func() {
		if err != nil {
			s.snapshotErrors.Add(1)
		}
	}()
	final := snapFileName(meta.Name, meta.Generation, meta.Journal)
	tmp, err := s.writeTemp(final, meta, payload)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok != nil && !ok() {
		_ = os.Remove(tmp) // a stray temp file is only clutter: Open and rescan skip it
		return false, nil
	}
	if err := s.install(tmp, final); err != nil {
		return false, err
	}
	old, had := s.manifest[meta.Name]
	s.manifest[meta.Name] = manifestEntry{File: final, Generation: meta.Generation}
	if err := s.writeManifestLocked(); err != nil {
		// The manifest still names the old snapshot; the new file is
		// orphaned but harmless (a future rescan would adopt it).
		s.manifest[meta.Name] = old
		if !had {
			delete(s.manifest, meta.Name)
		}
		return false, err
	}
	if had && old.File != final {
		_ = os.Remove(filepath.Join(s.dir, old.File))
	}
	if committed != nil {
		committed()
	}
	s.snapshots.Add(1)
	s.snapshotBytes.Add(int64(len(payload)))
	return true, nil
}

// Load reads and validates the live snapshot for name. A missing name
// returns fs.ErrNotExist; a damaged file returns an error wrapping
// ErrCorrupt (the caller decides whether to quarantine — LoadAll does).
func (s *Store) Load(name string) (Meta, []byte, error) {
	s.mu.Lock()
	ent, ok := s.manifest[name]
	s.mu.Unlock()
	if !ok {
		return Meta{}, nil, fmt.Errorf("store: load %q: %w", name, fs.ErrNotExist)
	}
	meta, payload, err := readFrameFile(filepath.Join(s.dir, ent.File))
	if err != nil {
		return Meta{}, nil, err
	}
	if meta.Name != name {
		return Meta{}, nil, corruptf("snapshot %s claims name %q, manifest says %q", ent.File, meta.Name, name)
	}
	s.loads.Add(1)
	return meta, payload, nil
}

// RecoveryEvent describes one graph's fate during LoadAll.
type RecoveryEvent struct {
	Name string
	File string
	Meta Meta
	// Err is nil for a recovered graph; otherwise the validation or
	// decode failure.
	Err error
	// Quarantined reports that the failure was corruption and the file
	// was renamed to *.corrupt and dropped from the manifest. A failure
	// with Quarantined false (a resource or catalog error on valid bytes)
	// leaves the snapshot and its manifest entry intact for a later boot.
	Quarantined bool
}

// LoadAll replays every manifest-listed snapshot through decode. A frame
// that fails integrity validation — or whose decode callback reports
// corruption (an error wrapping ErrCorrupt) — is quarantined to
// <file>.corrupt and dropped from the manifest; any other failure keeps
// the durable copy untouched, since valid bytes must never be destroyed
// over a transient error. Recovery of the remaining graphs continues
// either way. The returned events report each graph's fate; the error is
// only non-nil for store-level failures (an unwritable manifest), never
// for per-file corruption.
func (s *Store) LoadAll(decode func(meta Meta, payload []byte) error) ([]RecoveryEvent, error) {
	s.mu.Lock()
	names := make([]string, 0, len(s.manifest))
	for n := range s.manifest {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make(map[string]manifestEntry, len(names))
	for _, n := range names {
		entries[n] = s.manifest[n]
	}
	s.mu.Unlock()

	var events []RecoveryEvent
	dirty := false
	for _, name := range names {
		ent := entries[name]
		path := filepath.Join(s.dir, ent.File)
		meta, payload, err := readFrameFile(path)
		if err == nil && meta.Name != name {
			err = corruptf("snapshot %s claims name %q, manifest says %q", ent.File, meta.Name, name)
		}
		if err == nil {
			err = decode(meta, payload)
		}
		ev := RecoveryEvent{Name: name, File: ent.File, Meta: meta, Err: err}
		switch {
		case err == nil:
			s.loads.Add(1)
		case errors.Is(err, ErrCorrupt):
			ev.Quarantined = true
			s.quarantine(path)
			s.mu.Lock()
			delete(s.manifest, name)
			s.mu.Unlock()
			dirty = true
		}
		events = append(events, ev)
	}
	if dirty {
		s.mu.Lock()
		err := s.writeManifestLocked()
		s.mu.Unlock()
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// Remove drops name's snapshot: manifest first (so a crash between the
// two steps leaves an orphaned file, not a dangling manifest entry), then
// the file. forget runs first, under the store mutex, so no SaveIf commit
// can land between it and the removal. It reports whether a manifest
// entry existed, so callers can distinguish "cleaned up" from "nothing
// to clean".
func (s *Store) Remove(name string, forget func()) (removed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	forget()
	ent, ok := s.manifest[name]
	if !ok {
		return false, nil
	}
	delete(s.manifest, name)
	if err := s.writeManifestLocked(); err != nil {
		s.manifest[name] = ent
		return false, err
	}
	_ = os.Remove(filepath.Join(s.dir, ent.File))
	return true, nil
}

// Names returns the manifest's graph names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.manifest))
	for n := range s.manifest {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.manifest)
	s.mu.Unlock()
	return Stats{
		Graphs:         n,
		Snapshots:      s.snapshots.Load(),
		SnapshotBytes:  s.snapshotBytes.Load(),
		SnapshotErrors: s.snapshotErrors.Load(),
		SnapshotNanos:  s.snapshotNanos.Load(),
		Loads:          s.loads.Load(),
		Quarantined:    s.quarantined.Load(),
	}
}

// quarantine renames a damaged file to <file>.corrupt, preserving the
// bytes for forensics while taking them out of the recovery path.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err == nil {
		s.quarantined.Add(1)
	}
}

// writeManifestLocked rewrites the manifest frame via temp-fsync-rename.
// Callers hold s.mu.
//
//grblint:locked mu
func (s *Store) writeManifestLocked() error {
	payload, err := json.Marshal(manifestDoc{Graphs: s.manifest})
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	tmp, err := s.writeTemp(manifestName, Meta{Name: manifestName, Kind: "manifest"}, payload)
	if err != nil {
		return err
	}
	return s.install(tmp, manifestName)
}

// writeTemp writes a frame destined for final to a same-directory temp
// file and fsyncs it, returning the temp path. Together with install it
// is the atom that makes mid-write crashes invisible to readers.
func (s *Store) writeTemp(final string, meta Meta, payload []byte) (string, error) {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return "", fmt.Errorf("store: write %s: %w", final, err)
	}
	tmpName := tmp.Name()
	err = WriteFrame(tmp, meta, payload)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmpName) // best-effort; the write error is the one to report
		return "", fmt.Errorf("store: write %s: %w", final, err)
	}
	return tmpName, nil
}

// install renames a temp file written by writeTemp over final and makes
// the rename durable.
func (s *Store) install(tmp, final string) error {
	if err := os.Rename(tmp, filepath.Join(s.dir, final)); err != nil {
		_ = os.Remove(tmp) // best-effort; the rename error is the one to report
		return fmt.Errorf("store: write %s: %w", final, err)
	}
	s.syncDir()
	return nil
}

// syncDir fsyncs the data directory so renames are durable; best-effort
// (some filesystems reject directory fsync).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// readFrameFile reads and validates one frame file in full.
func readFrameFile(path string) (Meta, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	meta, payload, err := ReadFrame(f)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	// Trailing garbage after the trailer means the file is not the frame
	// the writer produced.
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return Meta{}, nil, corruptf("%s: trailing bytes after frame", filepath.Base(path))
	}
	return meta, payload, nil
}

// snapFileName builds the on-disk name for a snapshot: an escaped graph
// name plus the generation and journal floor, which together identify a
// frame (two snapshots at one generation carry different floors when the
// graph changed LSN space in between). The name in the frame metadata is
// authoritative; the file name only needs to be unique and
// filesystem-safe. The "." before the floor keeps these names disjoint
// from the older "<name>-<gen>.snap" scheme, whose last "-" is followed
// by digits only: with a "-" there, graph "a" at generation 1, floor 2
// would reuse the live file of graph "a-1" at generation 2.
func snapFileName(name string, gen, journal uint64) string {
	return fmt.Sprintf("%s-%d.%d.snap", escapeName(name), gen, journal)
}

// escapeName hex-escapes every byte outside [A-Za-z0-9.-], including the
// escape character itself, so distinct graph names can never collide on
// disk and no name can traverse directories.
func escapeName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
			b.WriteByte(c)
		case c == '.' && i > 0:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "_%02x", c)
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
