package oodb

import (
	"fmt"
	"sync"
	"sync/atomic" //lint:allow rawatomics write-set membership mark, not a metric
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
	dirtyIn atomic.Uint64
	// room holds the attribute slot of a one-attribute class created by
	// NewObject (values then points into it): object and slot are one
	// allocation. Only NewObject uses it: a multi-attribute object, and
	// an object loaded from storage, which keeps the slice its decoding
	// allocated, leave it empty.
	room [1]any
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

// Write makes the change Undo(idx, old) reverts (it makes *Object a
// txn.Writer, so that a transaction writes and logs the before-image
// in one step): attribute slot idx of a live object gets v, the slot
// undoPersist persists o and undoDelete deletes it. It returns the
// replaced value and whether anything changed. The caller holds o's X
// lock.
func (o *Object) Write(idx int, v any) (old any, changed bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case idx == undoPersist:
		changed, o.persistent = !o.persistent, true
		return nil, changed, nil
	case o.deleted:
		return nil, false, fmt.Errorf("%w: %v", ErrDeleted, o)
	case idx == undoDelete:
		o.deleted = true
		return nil, true, nil
	}
	old, o.values[idx] = o.values[idx], v
	return old, true, nil
}

// markDirty records that the write set of the top-level transaction
// top lists o, and reports whether it did not already.
func (o *Object) markDirty(top uint64) bool {
	return o.dirtyIn.Swap(top) != top
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
// longer keep them alive, inline room included. Get and Invoke already
// refuse a deleted object, so nothing reads the slots again.
func (o *Object) release() {
	o.mu.Lock()
	o.values = nil
	o.room = [1]any{}
	o.mu.Unlock()
}

// String implements fmt.Stringer.
func (o *Object) String() string {
	return fmt.Sprintf("%s#%d", o.class.Name, o.oid)
}
