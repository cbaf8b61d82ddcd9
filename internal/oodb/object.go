package oodb

import (
	"fmt"
	"sync"
)

// Object is one instance of a class. Attribute slots follow the
// class's declaration order. Objects are transient until persisted
// (explicitly or by reachability from a persistent object at commit).
//
// Isolation is provided by the lock manager in the database layer:
// conflicting access takes object-granular locks; the object's own
// mutex only protects structural integrity.
type Object struct {
	oid   OID
	class *Class

	mu         sync.RWMutex
	values     []any
	persistent bool
	deleted    bool
	// dirtyIn is the ID of the last top-level transaction whose write
	// set lists the object. The X lock a writer holds serializes the
	// transactions that set it, so the write set needs no map to list
	// each object once.
	dirtyIn uint64
}

// Undo slots other than attribute indexes (see Undo).
const (
	undoPersist = -1 - iota // Persist of a transient object
	undoDelete              // Delete
)

// OID returns the object identifier.
func (o *Object) OID() OID { return o.oid }

// Class returns the object's class descriptor.
func (o *Object) Class() *Class { return o.class }

// Persistent reports whether the object is (or will be at commit)
// stored durably.
func (o *Object) Persistent() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.persistent
}

// Deleted reports whether the object has been deleted.
func (o *Object) Deleted() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.deleted
}

// get reads an attribute slot without lock-manager involvement.
func (o *Object) get(idx int) any {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.values[idx]
}

// read is get for a caller that must not see a deleted object.
func (o *Object) read(idx int) (any, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.deleted {
		return nil, fmt.Errorf("%w: %v", ErrDeleted, o)
	}
	return o.values[idx], nil
}

// write sets attribute slot idx of a live object to v and returns the
// value it replaces, and whether o is new to the write set of the
// top-level transaction top: the caller holds o's X lock.
func (o *Object) write(idx int, v any, top uint64) (old any, first bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.deleted {
		return nil, false, fmt.Errorf("%w: %v", ErrDeleted, o)
	}
	old, o.values[idx] = o.values[idx], v
	first, o.dirtyIn = o.dirtyIn != top, top
	return old, first, nil
}

// markDirty records that the write set of the top-level transaction
// top lists o, and reports whether it did not already.
func (o *Object) markDirty(top uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	first := o.dirtyIn != top
	o.dirtyIn = top
	return first
}

// Undo reverts a change of an aborted transaction (it makes *Object a
// txn.Undoer, the before-image the database logs instead of a
// closure): attribute slot idx gets back old; the slots undoPersist and
// undoDelete take back a Persist and a Delete.
func (o *Object) Undo(idx int, old any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch idx {
	case undoPersist:
		o.persistent = false
	case undoDelete:
		o.deleted = false
	default:
		o.values[idx] = old
	}
}

// appendRecord translates the object into a storage record appended
// to buf, reading the attribute slots under the read lock instead of
// copying them first.
func (o *Object) appendRecord(buf []byte) ([]byte, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return appendObject(buf, o.oid, o.class.Name, o.values)
}

// release drops the attribute values of an object whose delete has
// committed: handles held elsewhere (event arguments, user code) no
// longer keep them alive. Get and Invoke already refuse a deleted
// object, so nothing reads the slots again.
func (o *Object) release() {
	o.mu.Lock()
	o.values = nil
	o.mu.Unlock()
}

// String implements fmt.Stringer.
func (o *Object) String() string {
	return fmt.Sprintf("%s#%d", o.class.Name, o.oid)
}
