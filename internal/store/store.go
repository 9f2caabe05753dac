package store

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// snapExt ends the name of every live snapshot file. Each graph has
// exactly one, named after the escaped graph name, so the rename that
// installs a snapshot is its commit and the directory listing is the
// live set. No earlier layout used this suffix, so migrating an older
// directory can never rename over one of its files.
const snapExt = ".lgsnap"

// Stats aggregates store activity counters, rendered by /metrics.
type Stats struct {
	Graphs         int   `json:"graphs"`          // live snapshot files
	Snapshots      int64 `json:"snapshots"`       // successful Save calls
	SnapshotBytes  int64 `json:"snapshot_bytes"`  // frame bytes durably written
	SnapshotErrors int64 `json:"snapshot_errors"` // failed Save attempts
	SnapshotNanos  int64 `json:"snapshot_nanos"`  // cumulative snapshot wall time
	Loads          int64 `json:"loads"`           // snapshots read back successfully
	Quarantined    int64 `json:"quarantined"`     // files renamed to *.corrupt
}

// Store manages the snapshot files under one data directory, one file
// per graph. It holds no policy about which snapshot is newer: a caller
// that needs one passes a commit veto to SaveIf. All methods are safe
// for concurrent use.
type Store struct {
	dir string

	// mu serializes commits and removals: the veto, the rename or unlink,
	// and the caller's callbacks run as one step.
	mu sync.Mutex

	snapshots      atomic.Int64
	snapshotBytes  atomic.Int64
	snapshotErrors atomic.Int64
	snapshotNanos  atomic.Int64
	loads          atomic.Int64
	quarantined    atomic.Int64
}

// Open creates (if needed) the data directory and migrates a directory
// written by an earlier release to the one-file-per-graph layout (see
// migrate).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	if err := s.migrate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Save durably writes one snapshot frame and makes it live,
// unconditionally.
func (s *Store) Save(meta Meta, payload []byte) (written bool, err error) {
	return s.SaveIf(meta, payload, nil, nil)
}

// SaveIf is Save with a commit veto. The frame is written and fsynced to
// a temp file first; then, under the store mutex, ok (when non-nil)
// decides whether it may become live. A false return discards the temp
// file, so a vetoed write never touches the live file. Otherwise the
// temp file is renamed over the graph's live file, the directory is
// fsynced, and committed (when non-nil) runs, still under the mutex, so a
// caller can record what is durable atomically with the commit.
func (s *Store) SaveIf(meta Meta, payload []byte, ok func() bool, committed func()) (written bool, err error) {
	defer func() {
		if err != nil {
			s.snapshotErrors.Add(1)
		}
	}()
	final := fileName(meta.Name)
	tmp, err := s.writeTemp(final, meta, payload)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok != nil && !ok() {
		_ = os.Remove(tmp) // a stray temp file is only clutter: nothing reads it
		return false, nil
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, final)); err != nil {
		_ = os.Remove(tmp) // best-effort; the rename error is the one to report
		return false, fmt.Errorf("store: write %s: %w", final, err)
	}
	s.syncDir()
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
	meta, payload, err := s.read(name, fileName(name))
	if err != nil {
		return Meta{}, nil, err
	}
	s.loads.Add(1)
	return meta, payload, nil
}

// read reads file and checks that its frame belongs to name.
func (s *Store) read(name, file string) (Meta, []byte, error) {
	meta, payload, err := readFrameFile(filepath.Join(s.dir, file))
	if err != nil {
		return Meta{}, nil, err
	}
	if meta.Name != name {
		return Meta{}, nil, corruptf("snapshot %s claims name %q, file name says %q", file, meta.Name, name)
	}
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
	// was renamed to *.corrupt, out of the live set. A failure with
	// Quarantined false (a resource or catalog error on valid bytes)
	// leaves the snapshot in place for a later boot.
	Quarantined bool
}

// LoadAll replays every live snapshot through decode. A frame that fails
// integrity validation, names another graph than its file does, or whose
// decode callback reports corruption (an error wrapping ErrCorrupt) is
// quarantined to <file>.corrupt; any other failure keeps the durable copy
// untouched, since valid bytes must never be destroyed over a transient
// error. Recovery of the remaining graphs continues either way. The
// returned events report each graph's fate; the error is only non-nil
// when the directory cannot be listed, never for per-file corruption.
func (s *Store) LoadAll(decode func(meta Meta, payload []byte) error) ([]RecoveryEvent, error) {
	files, err := s.list(snapExt)
	if err != nil {
		return nil, err
	}
	var events []RecoveryEvent
	for _, file := range files {
		ev := RecoveryEvent{File: file}
		name, ok := unescapeName(strings.TrimSuffix(file, snapExt))
		if ok {
			ev.Name = name
			var payload []byte
			ev.Meta, payload, ev.Err = s.read(name, file)
			if ev.Err == nil {
				ev.Err = decode(ev.Meta, payload)
			}
		} else {
			ev.Name, ev.Err = file, corruptf("%s is not a snapshot file name", file)
		}
		switch {
		case ev.Err == nil:
			s.loads.Add(1)
		case errors.Is(ev.Err, ErrCorrupt):
			ev.Quarantined = true
			s.quarantine(filepath.Join(s.dir, file))
		}
		events = append(events, ev)
	}
	return events, nil
}

// Remove drops name's snapshot. forget runs first, under the store
// mutex, so no SaveIf commit can land between it and the unlink; the
// directory is fsynced before Remove returns, so a removed graph never
// comes back. It reports whether a snapshot existed, so callers can
// distinguish "cleaned up" from "nothing to clean".
func (s *Store) Remove(name string, forget func()) (removed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	forget()
	err = os.Remove(filepath.Join(s.dir, fileName(name)))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: remove %q: %w", name, err)
	}
	s.syncDir()
	return true, nil
}

// Names returns the names of the graphs with a live snapshot, sorted.
func (s *Store) Names() []string {
	files, _ := s.list(snapExt) // an unlistable directory holds no graphs we can load
	names := make([]string, 0, len(files))
	for _, file := range files {
		if name, ok := unescapeName(strings.TrimSuffix(file, snapExt)); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	files, _ := s.list(snapExt) // as in Names
	return Stats{
		Graphs:         len(files),
		Snapshots:      s.snapshots.Load(),
		SnapshotBytes:  s.snapshotBytes.Load(),
		SnapshotErrors: s.snapshotErrors.Load(),
		SnapshotNanos:  s.snapshotNanos.Load(),
		Loads:          s.loads.Load(),
		Quarantined:    s.quarantined.Load(),
	}
}

// list returns the sorted names of the files in the data directory that
// end in ext.
func (s *Store) list(ext string) ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", s.dir, err)
	}
	var files []string
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ext) {
			files = append(files, ent.Name())
		}
	}
	return files, nil
}

// quarantine renames a damaged file to <file>.corrupt, preserving the
// bytes for forensics while taking them out of the recovery path.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err == nil {
		s.quarantined.Add(1)
	}
}

// writeTemp writes a frame destined for final to a same-directory temp
// file and fsyncs it, returning the temp path. Together with the rename
// in SaveIf it is the atom that makes mid-write crashes invisible to
// readers.
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

// syncDir fsyncs the data directory so renames and unlinks are durable;
// best-effort (some filesystems reject directory fsync).
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

// fileName is the live snapshot file of graph name. The name in the
// frame metadata is authoritative; the file name must only be unique per
// graph and filesystem-safe.
func fileName(name string) string {
	return escapeName(name) + snapExt
}

// escapeName hex-escapes every byte outside [A-Za-z0-9.-], including the
// escape character itself, so distinct graph names can never collide on
// disk and no name can traverse directories. A leading "." is escaped
// too, so no snapshot file is hidden or mistaken for a temp file.
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

// unescapeName inverts escapeName, whose "_xx" escapes are
// percent-escapes with another marker. ok is false for a string
// escapeName does not produce, such as a file someone else put in the
// directory.
func unescapeName(esc string) (name string, ok bool) {
	if esc == "_" {
		return "", true
	}
	name, err := url.PathUnescape(strings.ReplaceAll(esc, "_", "%"))
	return name, err == nil && escapeName(name) == esc
}
