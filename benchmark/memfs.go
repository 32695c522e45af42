package main

import (
	"io"
	"io/fs"
	"os"
	"sync"
	"time"

	"cacheagg/internal/faultfs"
)

// memFS is a faultfs.FS that keeps files in memory. The timed ops of
// external_spill spill through it, because the disk's share of the op holds
// no bound: on the ext4 volume of the reference box, creating, reading and
// unlinking 256 files of 10 KiB in a fresh directory — what one op does,
// with no code of the library involved — takes 14 ms when the volume was
// idle and 40 to 75 ms half a minute later, and the public call drifted from
// 142 to 270 ms/op over ten runs. The spill codec, eviction, merge and the
// memory governor do exactly the work they do on a disk. The disk's share is
// demoted to the traced run: external.disk_op_p50_ms times the public call
// on the real disk, external.spill_files_per_op counts the files.
type memFS struct {
	mu      sync.Mutex
	files   map[string]*memData
	created int // files ever created
}

type memData struct{ b []byte }

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

// count returns how many files exist now and how many were ever created.
func (m *memFS) count() (existing, created int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.files), m.created
}

func (m *memFS) Create(name string) (faultfs.File, error) {
	d := &memData{}
	m.mu.Lock()
	m.files[name] = d
	m.created++
	m.mu.Unlock()
	return &memFile{name: name, d: d}, nil
}

func (m *memFS) Open(name string) (faultfs.File, error) {
	m.mu.Lock()
	d, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{name: name, d: d}, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = d
	return nil
}

// memFile is one open handle: writes append, reads advance an offset. The
// spill path never has a file open twice at once, so the data needs no lock
// of its own.
type memFile struct {
	name string
	d    *memData
	off  int
}

func (f *memFile) Write(p []byte) (int, error) {
	f.d.b = append(f.d.b, p...)
	return len(p), nil
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.off >= len(f.d.b) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

func (f *memFile) Stat() (os.FileInfo, error) {
	return memInfo{name: f.name, size: int64(len(f.d.b))}, nil
}

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o600 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
