package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic" //lint:allow rawatomics the device's own byte and call counters, kept outside the program's registry on purpose

	"repro/internal/fault"
)

// memFS is the benchmark's default device: an in-process filesystem, so
// a run touches no file outside its checkout and an fsync costs the same
// on every box. It is what the issue's tmpfs data directory would be,
// minus the system calls. Files are chains of fixed-size chunks so that
// growing the 20 MiB data file never copies it.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	// chunks counts allocated chunks across all live files, so the heap
	// the device itself holds can be subtracted from live_heap_mb.
	chunks atomic.Int64
}

const memChunk = 256 << 10

type memData struct {
	fs     *memFS
	mu     sync.Mutex
	chunks [][]byte
	size   int64
}

func newMemFS() *memFS { return &memFS{files: make(map[string]*memData)} }

// heapBytes reports the bytes of Go heap the device's files occupy.
func (fs *memFS) heapBytes() int64 { return fs.chunks.Load() * memChunk }

func (fs *memFS) OpenFile(path string) (fault.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := fs.files[path]
	if d == nil {
		d = &memData{fs: fs}
		fs.files[path] = d
	}
	return &memFile{d: d}, nil
}

func (fs *memFS) ReadDir(dir string) ([]string, error) {
	prefix := strings.TrimSuffix(dir, "/") + "/"
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for p := range fs.files {
		if rest, ok := strings.CutPrefix(p, prefix); ok && !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	return names, nil
}

func (fs *memFS) Remove(path string) error {
	fs.mu.Lock()
	d := fs.files[path]
	delete(fs.files, path)
	fs.mu.Unlock()
	if d == nil {
		return os.ErrNotExist
	}
	d.mu.Lock()
	fs.chunks.Add(-int64(len(d.chunks)))
	d.chunks, d.size = nil, 0
	d.mu.Unlock()
	return nil
}

// resizeLocked makes the chunk chain cover size bytes, zero-filling on
// growth as a sparse file would.
func (d *memData) resizeLocked(size int64) {
	want := int((size + memChunk - 1) / memChunk)
	for len(d.chunks) < want {
		d.chunks = append(d.chunks, make([]byte, memChunk))
		d.fs.chunks.Add(1)
	}
	if want < len(d.chunks) {
		d.fs.chunks.Add(int64(want - len(d.chunks)))
		d.chunks = d.chunks[:want]
	}
	if size < d.size && want > 0 {
		clear(d.chunks[want-1][size-int64(want-1)*memChunk:])
	}
	d.size = size
}

func (d *memData) writeAt(p []byte, off int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if end := off + int64(len(p)); end > d.size {
		d.resizeLocked(end)
	}
	n := 0
	for n < len(p) {
		c, o := (off+int64(n))/memChunk, (off+int64(n))%memChunk
		n += copy(d.chunks[c][o:], p[n:])
	}
	return n
}

func (d *memData) readAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for n < len(p) && off+int64(n) < d.size {
		c, o := (off+int64(n))/memChunk, (off+int64(n))%memChunk
		lim := min(int64(memChunk), d.size-c*memChunk)
		n += copy(p[n:], d.chunks[c][o:lim])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// memFile is one handle: a seek position over shared file data.
type memFile struct {
	d   *memData
	pos int64
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error)  { return f.d.readAt(p, off) }
func (f *memFile) WriteAt(p []byte, off int64) (int, error) { return f.d.writeAt(p, off), nil }
func (f *memFile) Close() error                             { return nil }
func (f *memFile) Sync() error                              { return nil }

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.d.readAt(p, f.pos)
	f.pos += int64(n)
	if n > 0 {
		err = nil
	}
	return n, err
}

func (f *memFile) Write(p []byte) (int, error) {
	n := f.d.writeAt(p, f.pos)
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		size, _ := f.Size()
		offset += size
	}
	if offset < 0 {
		return 0, fmt.Errorf("memfs: negative seek")
	}
	f.pos = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.d.mu.Lock()
	f.d.resizeLocked(size)
	f.d.mu.Unlock()
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return f.d.size, nil
}

// device is the counting (and, in the traced pass, timing) wrapper every
// byte the storage manager moves goes through. It is the bottom layer of
// the per-layer metrics: the sandbox's latency is not a disk's, so device
// cost is reported as counts.
type device struct {
	fs  fault.FS
	mem *memFS // nil when -dir selected the real filesystem

	writes     atomic.Int64
	writeBytes atomic.Int64
	walBytes   atomic.Int64 // the share of writeBytes that went to log files
	syncs      atomic.Int64
	// Time inside writes and syncs, accumulated only while timed is set
	// (the traced pass): two clock reads per write would otherwise be
	// charged to the untraced end-to-end numbers.
	timed      atomic.Bool
	writeNS    atomic.Int64
	walWriteNS atomic.Int64 // the share of writeNS spent on log files
	syncNS     atomic.Int64
}

func newDevice(realDir bool) *device {
	if realDir {
		return &device{fs: fault.OS{}}
	}
	m := newMemFS()
	return &device{fs: m, mem: m}
}

func (d *device) OpenFile(path string) (fault.File, error) {
	f, err := d.fs.OpenFile(path)
	if err != nil {
		return nil, err
	}
	wal := strings.HasPrefix(filepath.Base(path), "wal.log")
	return &deviceFile{File: f, d: d, wal: wal}, nil
}

// mkdir creates a data directory; the in-memory device has none to make.
func (d *device) mkdir(dir string) error {
	if d.mem != nil {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

func (d *device) ReadDir(dir string) ([]string, error) { return d.fs.ReadDir(dir) }
func (d *device) Remove(path string) error             { return d.fs.Remove(path) }

type deviceFile struct {
	fault.File
	d   *device
	wal bool
}

func (f *deviceFile) noteWrite(n int, start int64) {
	f.d.writes.Add(1)
	f.d.writeBytes.Add(int64(n))
	if f.wal {
		f.d.walBytes.Add(int64(n))
	}
	if start != 0 {
		ns := nowNS() - start
		f.d.writeNS.Add(ns)
		if f.wal {
			f.d.walWriteNS.Add(ns)
		}
	}
}

// begin reads the clock only while device calls are being timed.
func (f *deviceFile) begin() int64 {
	if f.d.timed.Load() {
		return nowNS()
	}
	return 0
}

func (f *deviceFile) Write(p []byte) (int, error) {
	start := f.begin()
	n, err := f.File.Write(p)
	f.noteWrite(n, start)
	return n, err
}

func (f *deviceFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.begin()
	n, err := f.File.WriteAt(p, off)
	f.noteWrite(n, start)
	return n, err
}

func (f *deviceFile) Sync() error {
	start := f.begin()
	err := f.File.Sync()
	f.d.syncs.Add(1)
	if start != 0 {
		f.d.syncNS.Add(nowNS() - start)
	}
	return err
}

// deviceCounts is a snapshot of the device counters.
type deviceCounts struct {
	writes, writeBytes, walBytes, syncs, writeNS, walWriteNS, syncNS int64
}

func (d *device) counts() deviceCounts {
	return deviceCounts{d.writes.Load(), d.writeBytes.Load(), d.walBytes.Load(), d.syncs.Load(),
		d.writeNS.Load(), d.walWriteNS.Load(), d.syncNS.Load()}
}

func (c deviceCounts) sub(o deviceCounts) deviceCounts {
	return deviceCounts{c.writes - o.writes, c.writeBytes - o.writeBytes, c.walBytes - o.walBytes,
		c.syncs - o.syncs, c.writeNS - o.writeNS, c.walWriteNS - o.walWriteNS, c.syncNS - o.syncNS}
}

// dirBytes sums the sizes of the files directly inside dir.
func (d *device) dirBytes(dir string) (int64, error) {
	names, err := d.fs.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		f, err := d.fs.OpenFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

// copyDir copies every file of src into dst through the raw filesystem
// (uncounted): the crash image the recovery phase opens. Like cp on a
// live directory it also sees bytes that were written but never synced;
// lost-write coverage stays with `make crash`.
func (d *device) copyDir(src, dst string) error {
	names, err := d.fs.ReadDir(src)
	if err != nil {
		return err
	}
	buf := make([]byte, memChunk)
	for _, name := range names {
		in, err := d.fs.OpenFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		out, err := d.fs.OpenFile(filepath.Join(dst, name))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.CopyBuffer(struct{ io.Writer }{out}, struct{ io.Reader }{in}, buf)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("copy %s: %w", name, err)
		}
	}
	return nil
}

// removeDir deletes the files of dir (and, on the real filesystem, dir).
func (d *device) removeDir(dir string) {
	names, _ := d.fs.ReadDir(dir)
	for _, name := range names {
		_ = d.fs.Remove(filepath.Join(dir, name)) // best-effort cleanup of a scratch directory
	}
	if d.mem == nil {
		_ = os.Remove(dir) // best-effort cleanup of a scratch directory
	}
}
