// Package storage implements the REACH storage manager, the stand-in
// for the EXODUS storage manager used by Open OODB: slotted pages, a
// pinning buffer pool with LRU eviction, a write-ahead log, and
// redo-only crash recovery under a no-steal/no-force policy.
//
// The unit of storage is an uninterpreted record addressed by a RID
// (page, slot). The object layer above encodes object identity and
// class inside the record payload.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page, in bytes.
const PageSize = 8192

// PageID identifies a page within a store file. Pages are numbered
// from zero in allocation order.
type PageID uint32

// InvalidPageID is a PageID that never addresses a real page.
const InvalidPageID = PageID(0xFFFFFFFF)

// RID addresses a record: a page and a slot within it.
type RID struct {
	Page PageID
	Slot uint16
}

// InvalidRID is an RID that never addresses a real record.
var InvalidRID = RID{Page: InvalidPageID, Slot: 0xFFFF}

// Valid reports whether the RID could address a record.
func (r RID) Valid() bool { return r.Page != InvalidPageID }

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Page layout:
//
//	[0:8)   pageLSN  uint64 — LSN of the last log record applied
//	[8:10)  numSlots uint16 — number of slot entries (incl. dead ones)
//	[10:12) freeLow  uint16 — offset of the first free byte after slots
//	[12:14) freeHigh uint16 — offset of the first used byte of record data
//	[14:...)          slot array, 4 bytes per slot: offset,length uint16
//	...record data packed from the end of the page downward...
//
// A slot with offset 0xFFFF is dead (deleted); dead slots are reused
// by inserts so RIDs of live records remain stable.
const (
	pageHeaderSize = 14
	slotSize       = 4
	deadSlotOffset = 0xFFFF
)

// Errors returned by page operations.
var (
	ErrPageFull       = errors.New("storage: page full")
	ErrNoSuchRecord   = errors.New("storage: no such record")
	ErrRecordTooLarge = errors.New("storage: record exceeds page capacity")
)

// MaxRecordSize is the largest record that fits in a fresh page.
const MaxRecordSize = PageSize - pageHeaderSize - slotSize

// Page is an in-memory image of one slotted page.
type Page struct {
	buf [PageSize]byte
}

// InitPage formats p as an empty slotted page.
func (p *Page) InitPage() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeLow(pageHeaderSize)
	p.setFreeHigh(PageSize)
}

// Bytes exposes the raw page image (for the pager).
func (p *Page) Bytes() []byte { return p.buf[:] }

// LSN reports the page LSN, the LSN of the last log record whose
// effect the page reflects.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.buf[0:8]) }

// SetLSN records the LSN of the last log record applied to the page.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.buf[0:8], lsn) }

func (p *Page) numSlots() uint16     { return binary.LittleEndian.Uint16(p.buf[8:10]) }
func (p *Page) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.buf[8:10], n) }
func (p *Page) freeLow() uint16      { return binary.LittleEndian.Uint16(p.buf[10:12]) }
func (p *Page) setFreeLow(v uint16)  { binary.LittleEndian.PutUint16(p.buf[10:12], v) }
func (p *Page) freeHigh() uint16     { return binary.LittleEndian.Uint16(p.buf[12:14]) }
func (p *Page) setFreeHigh(v uint16) { binary.LittleEndian.PutUint16(p.buf[12:14], v) }

func (p *Page) slot(i uint16) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p.buf[base : base+2]),
		binary.LittleEndian.Uint16(p.buf[base+2 : base+4])
}

func (p *Page) setSlot(i, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p.buf[base:base+2], off)
	binary.LittleEndian.PutUint16(p.buf[base+2:base+4], length)
}

// FreeSpace reports the bytes available for a new record, accounting
// for the slot entry it would need.
func (p *Page) FreeSpace() int {
	gap := int(p.freeHigh()) - int(p.freeLow()) - slotSize
	if gap < 0 {
		return 0
	}
	return gap
}

// Insert places data in the page and returns its slot. Slot numbers
// are monotone within a page: dead slots are never reused for fresh
// inserts (their data bytes are reclaimed by compaction, their 4-byte
// slot entries linger). This keeps RIDs unambiguous across crash
// recovery — a committed insert can never land on a slot another
// record occupied, so physical redo never collides with the effects
// of transactions that were still in flight at the crash.
func (p *Page) Insert(data []byte) (uint16, error) {
	if len(data) > MaxRecordSize {
		return 0, ErrRecordTooLarge
	}
	need := len(data) + slotSize
	if int(p.freeHigh())-int(p.freeLow()) < need {
		if p.compact() && int(p.freeHigh())-int(p.freeLow()) >= need {
			return p.Insert(data)
		}
		return 0, ErrPageFull
	}
	slot := p.numSlots()
	p.setNumSlots(slot + 1)
	p.setFreeLow(p.freeLow() + slotSize)
	off := p.freeHigh() - uint16(len(data))
	copy(p.buf[off:], data)
	p.setFreeHigh(off)
	p.setSlot(slot, off, uint16(len(data)))
	return slot, nil
}

// InsertAt places data at a specific slot, growing the slot array if
// needed. It is used by physical redo so that RIDs replay exactly.
func (p *Page) InsertAt(slot uint16, data []byte) error {
	if len(data) > MaxRecordSize {
		return ErrRecordTooLarge
	}
	n := p.numSlots()
	grow := 0
	if slot >= n {
		grow = int(slot-n+1) * slotSize
	} else if off, _ := p.slot(slot); off != deadSlotOffset {
		return fmt.Errorf("storage: InsertAt slot %d occupied", slot)
	}
	if int(p.freeHigh())-int(p.freeLow()) < len(data)+grow {
		if !p.compact() || int(p.freeHigh())-int(p.freeLow()) < len(data)+grow {
			return ErrPageFull
		}
	}
	if slot >= n {
		for i := n; i <= slot; i++ {
			p.setSlot(i, deadSlotOffset, 0)
		}
		p.setNumSlots(slot + 1)
		p.setFreeLow(p.freeLow() + uint16(grow))
	}
	off := p.freeHigh() - uint16(len(data))
	copy(p.buf[off:], data)
	p.setFreeHigh(off)
	p.setSlot(slot, off, uint16(len(data)))
	return nil
}

// Get returns a copy of the record in the given slot.
func (p *Page) Get(slot uint16) ([]byte, error) {
	rec, err := p.record(slot)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(rec), nil
}

// record returns the record in the given slot, aliasing the page.
func (p *Page) record(slot uint16) ([]byte, error) {
	if slot >= p.numSlots() {
		return nil, ErrNoSuchRecord
	}
	off, length := p.slot(slot)
	if off == deadSlotOffset {
		return nil, ErrNoSuchRecord
	}
	return p.buf[off : off+length], nil
}

// Update replaces the record in slot with data, in place when it
// fits the page, reporting ErrPageFull when the page cannot hold the
// new image even after compaction.
func (p *Page) Update(slot uint16, data []byte) error {
	if slot >= p.numSlots() {
		return ErrNoSuchRecord
	}
	off, length := p.slot(slot)
	if off == deadSlotOffset {
		return ErrNoSuchRecord
	}
	if len(data) > MaxRecordSize {
		return ErrRecordTooLarge
	}
	if len(data) <= int(length) {
		copy(p.buf[off:], data)
		p.setSlot(slot, off, uint16(len(data)))
		return nil
	}
	// Mark dead, then try to place the larger image.
	p.setSlot(slot, deadSlotOffset, 0)
	if int(p.freeHigh())-int(p.freeLow()) < len(data) {
		if PageSize-int(p.freeLow())-p.liveBytes() < len(data) {
			// Even compaction cannot make room. Restore the old record,
			// before compaction could reclaim its bytes, so the caller
			// can read and relocate it.
			p.setSlot(slot, off, length)
			return ErrPageFull
		}
		p.compact()
	}
	newOff := p.freeHigh() - uint16(len(data))
	copy(p.buf[newOff:], data)
	p.setFreeHigh(newOff)
	p.setSlot(slot, newOff, uint16(len(data)))
	return nil
}

// Delete removes the record in slot. The slot becomes dead and its
// index may be reused by a later insert.
func (p *Page) Delete(slot uint16) error {
	if slot >= p.numSlots() {
		return ErrNoSuchRecord
	}
	off, _ := p.slot(slot)
	if off == deadSlotOffset {
		return ErrNoSuchRecord
	}
	p.setSlot(slot, deadSlotOffset, 0)
	return nil
}

// liveBytes sums the lengths of the live records.
func (p *Page) liveBytes() int {
	n := 0
	for i := uint16(0); i < p.numSlots(); i++ {
		if off, length := p.slot(i); off != deadSlotOffset {
			n += int(length)
		}
	}
	return n
}

// NumRecords reports the number of live records in the page.
func (p *Page) NumRecords() int {
	n := 0
	for i := uint16(0); i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off != deadSlotOffset {
			n++
		}
	}
	return n
}

// Slots calls fn for every live record in the page.
func (p *Page) Slots(fn func(slot uint16, data []byte)) {
	for i := uint16(0); i < p.numSlots(); i++ {
		off, length := p.slot(i)
		if off == deadSlotOffset {
			continue
		}
		fn(i, p.buf[off:off+length])
	}
}

// compact repacks live records to the end of the page, reclaiming the
// holes left by deletes and in-place shrinks. It reports whether any
// byte was reclaimed.
func (p *Page) compact() bool {
	type rec struct {
		slot uint16
		data []byte
	}
	var live []rec
	for i := uint16(0); i < p.numSlots(); i++ {
		off, length := p.slot(i)
		if off == deadSlotOffset {
			continue
		}
		d := make([]byte, length)
		copy(d, p.buf[off:off+length])
		live = append(live, rec{i, d})
	}
	before := p.freeHigh()
	high := uint16(PageSize)
	for _, r := range live {
		high -= uint16(len(r.data))
		copy(p.buf[high:], r.data)
		p.setSlot(r.slot, high, uint16(len(r.data)))
	}
	p.setFreeHigh(high)
	return high > before
}
