package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/fault"
)

// Pager performs page-granular I/O against the store's data file and
// tracks the high-water mark of allocated pages. All file access goes
// through a fault.File so tests can inject failures and simulate
// crashes; every I/O method consults its fault.Site* failpoint first.
type Pager struct {
	mu       sync.Mutex
	f        fault.File
	numPages PageID
}

// OpenPager opens (creating if necessary) the data file at path on
// the real filesystem.
func OpenPager(path string) (*Pager, error) {
	return OpenPagerFS(fault.OS{}, path)
}

// OpenPagerFS opens the data file at path through fs.
func OpenPagerFS(fs fault.FS, path string) (*Pager, error) {
	f, err := fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open data file: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat data file: %w", err)
	}
	if size%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: data file size %d not a multiple of page size", size)
	}
	return &Pager{f: f, numPages: PageID(size / PageSize)}, nil
}

// NumPages reports the number of allocated pages.
func (pg *Pager) NumPages() PageID {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.numPages
}

// Allocate extends the file by one formatted page and returns its ID.
func (pg *Pager) Allocate() (PageID, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	id := pg.numPages
	if fp := fault.Hit(fault.SitePagerAllocate); fp != nil {
		return InvalidPageID, fmt.Errorf("storage: allocate page %d: %w", id, fp.Err)
	}
	var p Page
	p.InitPage()
	if _, err := pg.f.WriteAt(p.Bytes(), int64(id)*PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	pg.numPages++
	return id, nil
}

// EnsureAllocated extends the file so that page id exists. Redo uses
// it to recreate pages allocated after the last flush.
func (pg *Pager) EnsureAllocated(id PageID) error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	for pg.numPages <= id {
		if fp := fault.Hit(fault.SitePagerAllocate); fp != nil {
			return fmt.Errorf("storage: extend to page %d: %w", id, fp.Err)
		}
		var p Page
		p.InitPage()
		if _, err := pg.f.WriteAt(p.Bytes(), int64(pg.numPages)*PageSize); err != nil {
			return fmt.Errorf("storage: extend to page %d: %w", id, err)
		}
		pg.numPages++
	}
	return nil
}

// Read fills p with the on-disk image of page id.
func (pg *Pager) Read(id PageID, p *Page) error {
	pg.mu.Lock()
	n := pg.numPages
	pg.mu.Unlock()
	if id >= n {
		return fmt.Errorf("storage: read page %d of %d: %w", id, n, errPageOutOfRange)
	}
	if fp := fault.Hit(fault.SitePagerRead); fp != nil {
		return fmt.Errorf("storage: read page %d: %w", id, fp.Err)
	}
	b := p.Bytes()
	got, err := pg.f.ReadAt(b, int64(id)*PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	// p may be a recycled frame: a short read must not leave the
	// previous page's bytes behind.
	clear(b[got:])
	return nil
}

// Write stores p as the on-disk image of page id.
func (pg *Pager) Write(id PageID, p *Page) error {
	b := p.Bytes()
	if fp := fault.Hit(fault.SitePagerWrite); fp != nil {
		if fp.Torn >= 0 && fp.Torn < len(b) {
			// Torn write: a prefix of the page reaches the file, then
			// the device "fails". The write error below still reports
			// the injected fault; the partial image is the point.
			_, _ = pg.f.WriteAt(b[:fp.Torn], int64(id)*PageSize)
		}
		return fmt.Errorf("storage: write page %d: %w", id, fp.Err)
	}
	if _, err := pg.f.WriteAt(b, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Sync flushes the data file to stable storage.
func (pg *Pager) Sync() error {
	if fp := fault.Hit(fault.SitePagerSync); fp != nil {
		return fmt.Errorf("storage: sync data file: %w", fp.Err)
	}
	return pg.f.Sync()
}

// Close syncs and closes the data file. The file handle is closed
// even when the sync fails, so Close never leaks a descriptor.
func (pg *Pager) Close() error {
	serr := pg.f.Sync()
	cerr := pg.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

var errPageOutOfRange = errors.New("storage: page out of range")
