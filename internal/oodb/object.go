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
}

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

// set writes an attribute slot without lock-manager involvement.
func (o *Object) set(idx int, v any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.values[idx] = v
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
