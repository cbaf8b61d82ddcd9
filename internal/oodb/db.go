package oodb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic" //lint:allow rawatomics OID allocator and sink pointer, not metrics

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Sink consumes the primitive events the database raises: method
// invocation (before/after), state changes, and object lifecycle
// (create/delete, modelled as method events). The call is synchronous
// — for a Before event the sink's return is the "go-ahead" of Figure
// 2; an error vetoes the operation and is surfaced to the caller.
//
// Wants is the cheap pre-check a well-designed sentry performs before
// paying for event-object construction: when it returns false the
// database skips building the instance entirely, so the "useless
// overhead" of a sentry with no subscribers stays a key lookup
// (paper §6.2, [WSTR93]).
type Sink interface {
	Wants(specKey string) bool
	Emit(in *event.Instance) error
}

// Lifecycle pseudo-method names under which create and delete events
// are raised. Detecting deletion through the destructor is exactly
// what persistent C++ systems allow and O2-style persistence by
// reachability does not (paper §4).
const (
	MethodCreate = "__create__"
	MethodDelete = "__delete__"
)

// Options configure a database.
type Options struct {
	// Dir is the storage directory; empty selects a purely in-memory
	// database (no persistence across Open calls).
	Dir string
	// Storage tunes the storage manager when Dir is set.
	Storage storage.Options
	// Clock supplies timestamps for event instances; defaults to the
	// real clock.
	Clock clock.Clock
	// PersistByReachability makes commit persist every transient
	// object reachable via references from a persistent object.
	PersistByReachability bool
}

// DB is the database: dictionary, address spaces, transaction
// integration, and the persistence policy manager.
type DB struct {
	dict  *Dictionary
	txns  *txn.Manager
	store *storage.Store
	clk   clock.Clock
	opts  Options

	sink atomic.Value // Sink

	mu       sync.Mutex
	cache    map[OID]*Object // transient address space
	ridOf    map[OID]storage.RID
	roots    map[string]OID
	rootsRID storage.RID
	extents  map[string]map[OID]bool
	nextOID  uint64
}

// rootsLock is the lock-manager resource of the roots directory; no
// object has OID 0.
const rootsLock = 0

// Errors returned by database operations.
var (
	ErrNoSuchObject = errors.New("oodb: no such object")
	ErrNoSuchRoot   = errors.New("oodb: no such root")
	ErrNoSuchAttr   = errors.New("oodb: no such attribute")
	ErrNoSuchMethod = errors.New("oodb: no such method")
	ErrDeleted      = errors.New("oodb: object deleted")
)

// Open opens a database with the given options.
func Open(opts Options) (*DB, error) {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	db := &DB{
		dict:     NewDictionary(),
		txns:     txn.NewManager(),
		clk:      opts.Clock,
		opts:     opts,
		cache:    make(map[OID]*Object),
		ridOf:    make(map[OID]storage.RID),
		roots:    make(map[string]OID),
		rootsRID: storage.InvalidRID,
		extents:  make(map[string]map[OID]bool),
	}
	if opts.Dir != "" {
		st, err := storage.Open(opts.Dir, opts.Storage)
		if err != nil {
			return nil, err
		}
		db.store = st
		if err := db.loadCatalog(); err != nil {
			_ = st.Close() // opening failed; the close is best-effort cleanup
			return nil, err
		}
	}
	db.txns.SetDurability(db.flushCommit, db.flushAbort)
	return db, nil
}

// loadCatalog rebuilds the object table, roots and OID counter by
// scanning the store (the persistent address space).
func (db *DB) loadCatalog() error {
	return db.store.Scan(func(rid storage.RID, rec []byte) {
		if len(rec) == 0 {
			return
		}
		switch rec[0] {
		case recRoots:
			if roots, err := decodeRoots(rec); err == nil {
				db.roots = roots
				db.rootsRID = rid
			}
		case recObject:
			if oid, class, _, err := decodeObject(rec); err == nil {
				db.ridOf[oid] = rid
				ext := db.extents[class]
				if ext == nil {
					ext = make(map[OID]bool)
					db.extents[class] = ext
				}
				ext[oid] = true
				if uint64(oid) > db.nextOID {
					db.nextOID = uint64(oid)
				}
			}
		}
	})
}

// Dictionary exposes the data dictionary for class registration.
func (db *DB) Dictionary() *Dictionary { return db.dict }

// TxnManager exposes the transaction manager (the rule engine installs
// its listener there).
func (db *DB) TxnManager() *txn.Manager { return db.txns }

// Clock returns the database's time source.
func (db *DB) Clock() clock.Clock { return db.clk }

// SetSink installs the event sink (nil disables event delivery).
func (db *DB) SetSink(s Sink) { db.sink.Store(&s) }

func (db *DB) currentSink() Sink {
	v := db.sink.Load()
	if v == nil {
		return nil
	}
	return *(v.(*Sink))
}

// Begin starts a top-level transaction.
func (db *DB) Begin() *txn.Txn { return db.txns.Begin() }

// BeginAdmitted starts a top-level transaction through the admission
// gate: under overload it fails with the governor's typed
// ErrOverloaded instead of admitting work the system cannot finish.
func (db *DB) BeginAdmitted() (*txn.Txn, error) { return db.txns.BeginAdmitted() }

// NewObject creates a transient object of the named class inside t.
func (db *DB) NewObject(t *txn.Txn, className string) (*Object, error) {
	class, err := db.dict.Lookup(className)
	if err != nil {
		return nil, err
	}
	oid := OID(atomic.AddUint64(&db.nextOID, 1))
	values := make([]any, len(class.attrs))
	for i, a := range class.attrs {
		values[i] = a.Type.zero()
	}
	obj := &Object{oid: oid, class: class, values: values}
	if err := t.Lock(uint64(oid), txn.LockExclusive); err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.cache[oid] = obj
	ext := db.extents[className]
	if ext == nil {
		ext = make(map[OID]bool)
		db.extents[className] = ext
	}
	ext[oid] = true
	db.mu.Unlock()
	t.OnAbort(func() {
		db.mu.Lock()
		delete(db.cache, oid)
		if ext := db.extents[className]; ext != nil {
			delete(ext, oid)
		}
		db.mu.Unlock()
	})
	if class.Monitored {
		if err := db.emitMethod(t, obj, MethodCreate, class.createKey, nil, nil); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// Get reads attribute attr of obj under t (shared lock).
func (db *DB) Get(t *txn.Txn, obj *Object, attr string) (any, error) {
	idx := obj.class.AttrIndex(attr)
	if idx < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchAttr, obj.class.Name, attr)
	}
	if err := t.Lock(uint64(obj.oid), txn.LockShared); err != nil {
		return nil, err
	}
	return obj.read(idx)
}

// Set writes attribute attr of obj under t (exclusive lock), raising a
// state-change event when the class is monitored.
func (db *DB) Set(t *txn.Txn, obj *Object, attr string, v any) error {
	idx := obj.class.AttrIndex(attr)
	if idx < 0 {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchAttr, obj.class.Name, attr)
	}
	val, err := checkValue(obj.class.attrs[idx].Type, v)
	if err != nil {
		return err
	}
	if err := t.Lock(uint64(obj.oid), txn.LockExclusive); err != nil {
		return err
	}
	top := t.Top()
	old, first, err := obj.write(idx, val, top.ID())
	if err != nil {
		return err
	}
	t.LogUndo(obj, idx, old)
	if first {
		db.writeSet(top).add(obj)
	}
	if obj.class.Monitored {
		sink := db.currentSink()
		if sink != nil {
			key := obj.class.stateKeys[idx]
			if !sink.Wants(key) {
				return nil
			}
			in := event.Get()
			in.SpecKey = key
			in.Kind = event.KindState
			in.Time = db.clk.Now()
			in.Txn = top.ID()
			in.OID = uint64(obj.oid)
			in.Class = obj.class.Name
			in.Args = append(in.Args, old, val)
			in.Origin = t
			err := sink.Emit(in)
			event.Recycle(in)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Invoke calls the named method on obj under t. For monitored classes
// the sentry raises before/after method events; the before event's
// return is the go-ahead (an error vetoes the call).
func (db *DB) Invoke(t *txn.Txn, obj *Object, method string, args ...any) (any, error) {
	m, ok := obj.class.lookupMethod(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, obj.class.Name, method)
	}
	monitored := obj.class.Monitored
	if monitored {
		if err := db.emitMethod(t, obj, method, m.key(event.Before), args, nil); err != nil {
			return nil, err
		}
	}
	res, err := m.impl(&Ctx{DB: db, Txn: t}, obj, args)
	if err != nil {
		return nil, err
	}
	if monitored {
		if err := db.emitMethod(t, obj, method, m.key(event.After), args, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (db *DB) emitMethod(t *txn.Txn, obj *Object, method, key string, args []any, result any) error {
	sink := db.currentSink()
	if sink == nil {
		return nil
	}
	if !sink.Wants(key) {
		return nil
	}
	in := event.Get()
	in.SpecKey = key
	in.Kind = event.KindMethod
	in.Time = db.clk.Now()
	in.Txn = t.Top().ID()
	in.OID = uint64(obj.oid)
	in.Class = obj.class.Name
	in.Method = method
	// Copy, don't alias: the pooled buffer must never capture the
	// caller's backing array.
	in.Args = append(in.Args, args...)
	in.Result = result
	in.Origin = t
	err := sink.Emit(in)
	event.Recycle(in)
	return err
}

// Persist marks obj persistent; its state is written at top-level
// commit. On an in-memory database persistence is a no-op mark — the
// object survives for the process lifetime and can be named as a
// root, but nothing reaches stable storage.
func (db *DB) Persist(t *txn.Txn, obj *Object) error {
	if err := t.Lock(uint64(obj.oid), txn.LockExclusive); err != nil {
		return err
	}
	obj.mu.Lock()
	was := obj.persistent
	obj.persistent = true
	obj.mu.Unlock()
	if !was {
		t.LogUndo(obj, undoPersist, nil)
	}
	if top := t.Top(); obj.markDirty(top.ID()) {
		db.writeSet(top).add(obj)
	}
	return nil
}

// SetRoot names obj in the persistent roots directory and persists it.
// Writers of the directory serialize on its lock, so each commit's
// roots record is written over the last committed one.
func (db *DB) SetRoot(t *txn.Txn, name string, obj *Object) error {
	if err := db.Persist(t, obj); err != nil {
		return err
	}
	if err := t.Lock(rootsLock, txn.LockExclusive); err != nil {
		return err
	}
	db.mu.Lock()
	old, had := db.roots[name]
	db.roots[name] = obj.oid
	db.mu.Unlock()
	t.OnAbort(func() {
		db.mu.Lock()
		if had {
			db.roots[name] = old
		} else {
			delete(db.roots, name)
		}
		db.mu.Unlock()
	})
	ws := db.writeSet(t.Top())
	ws.mu.Lock()
	ws.rootsDirty = true
	ws.mu.Unlock()
	return nil
}

// Root fetches the object registered under name — the OpenOODB->fetch
// of the paper's condition-function example (§6.1).
func (db *DB) Root(t *txn.Txn, name string) (*Object, error) {
	db.mu.Lock()
	oid, ok := db.roots[name]
	db.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchRoot, name)
	}
	return db.Load(t, oid)
}

// RootNames lists the registered root names.
func (db *DB) RootNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.roots))
	for n := range db.roots {
		out = append(out, n)
	}
	return out
}

// Load returns the object with the given OID, faulting it in from the
// persistent address space if necessary (the sentried "object
// dereference" of §5).
func (db *DB) Load(t *txn.Txn, oid OID) (*Object, error) {
	if err := t.Lock(uint64(oid), txn.LockShared); err != nil {
		return nil, err
	}
	db.mu.Lock()
	if obj, ok := db.cache[oid]; ok {
		db.mu.Unlock()
		if obj.Deleted() {
			return nil, fmt.Errorf("%w: %v", ErrDeleted, obj)
		}
		return obj, nil
	}
	rid, ok := db.ridOf[oid]
	db.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchObject, oid)
	}
	rec, err := db.store.Get(rid)
	if err != nil {
		return nil, fmt.Errorf("oodb: load %v: %w", oid, err)
	}
	gotOID, className, values, err := decodeObject(rec)
	if err != nil {
		return nil, err
	}
	if gotOID != oid {
		return nil, fmt.Errorf("oodb: object table maps %v to record of %v", oid, gotOID)
	}
	class, err := db.dict.Lookup(className)
	if err != nil {
		return nil, fmt.Errorf("oodb: load %v: %w", oid, err)
	}
	// Schema growth: zero-fill missing trailing slots.
	for len(values) < len(class.attrs) {
		values = append(values, class.attrs[len(values)].Type.zero())
	}
	obj := &Object{oid: oid, class: class, values: values, persistent: true}
	db.mu.Lock()
	if existing, ok := db.cache[oid]; ok {
		obj = existing // lost the race; use the resident copy
	} else {
		db.cache[oid] = obj
	}
	db.mu.Unlock()
	return obj, nil
}

// Delete removes obj. The destructor event is raised before the
// deletion so deletion-triggered rules can see the dying object.
func (db *DB) Delete(t *txn.Txn, obj *Object) error {
	if obj.class.Monitored {
		if err := db.emitMethod(t, obj, MethodDelete, obj.class.deleteKey, nil, nil); err != nil {
			return err
		}
	}
	if err := t.Lock(uint64(obj.oid), txn.LockExclusive); err != nil {
		return err
	}
	obj.mu.Lock()
	if obj.deleted {
		obj.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrDeleted, obj)
	}
	obj.deleted = true
	obj.mu.Unlock()
	t.LogUndo(obj, undoDelete, nil)
	ws := db.writeSet(t.Top())
	ws.mu.Lock()
	if ws.deleted == nil {
		ws.deleted = make(map[OID]*Object)
	}
	ws.deleted[obj.oid] = obj
	ws.mu.Unlock()
	return nil
}

// Extent calls fn with the OID of every live object of the class
// (including subclass members when the dictionary says so is handled
// by the query layer).
func (db *DB) Extent(className string, fn func(OID)) {
	db.mu.Lock()
	oids := make([]OID, 0, len(db.extents[className]))
	for oid := range db.extents[className] {
		oids = append(oids, oid)
	}
	db.mu.Unlock()
	for _, oid := range oids {
		fn(oid)
	}
}

// writeSet is the per-top-transaction write set, attached to the
// transaction's objects slot. dirty lists each object the transaction
// wrote or persisted once (Object.dirtyIn), on inline room for the
// typical transaction; deleted is made by the first Delete. An object
// whose Delete a subtransaction's abort took back stays in deleted (and
// in dirty, if written): commit goes by its flag.
type writeSet struct {
	mu         sync.Mutex
	dirty      []*Object
	inline     [8]*Object
	deleted    map[OID]*Object
	rootsDirty bool
}

// writeSet returns (creating if needed) the write set of the top-level
// transaction top.
func (db *DB) writeSet(top *txn.Txn) *writeSet {
	if ws, ok := top.Attachment(txn.SlotObjects).(*writeSet); ok {
		return ws
	}
	ws := &writeSet{}
	ws.dirty = ws.inline[:0]
	return top.Attach(txn.SlotObjects, ws).(*writeSet)
}

func (ws *writeSet) add(obj *Object) {
	ws.mu.Lock()
	ws.dirty = append(ws.dirty, obj)
	ws.mu.Unlock()
}

// flushCommit is the durability callback: it translates the top-level
// transaction's dirty persistent objects into storage records inside
// one storage transaction and commits it. Each object is encoded into
// one scratch buffer reused across the flush (the store copies the
// bytes into the page and the log). The catalog — object table,
// transient address space, extents, roots RID — changes only after
// the storage commit succeeds: a failed flush leaves it exactly as
// Txn.Abort leaves the objects themselves.
func (db *DB) flushCommit(t *txn.Txn) error {
	ws, ok := t.Attachment(txn.SlotObjects).(*writeSet)
	if !ok {
		return nil // read-only transaction
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if db.store == nil {
		db.publish(ws, nil)
		return nil
	}
	tid := t.ID()
	begun := false
	begin := func() error {
		if begun {
			return nil
		}
		begun = true
		return db.store.Begin(tid)
	}

	if db.opts.PersistByReachability {
		db.persistReachableLocked(ws)
	}

	for oid, obj := range ws.deleted {
		if !obj.Deleted() {
			continue // a subtransaction's abort took the Delete back
		}
		db.mu.Lock()
		rid, had := db.ridOf[oid]
		db.mu.Unlock()
		if had {
			if err := begin(); err != nil {
				return err
			}
			if err := db.store.Delete(tid, rid); err != nil { //lint:allow lockdiscipline ws is txn-private during the durability callback and storage never re-enters oodb
				return err
			}
		}
	}

	var moved []placed
	var rec []byte
	for _, obj := range ws.dirty {
		if !obj.Persistent() || obj.Deleted() {
			continue
		}
		oid := obj.oid
		var err error
		if rec, err = obj.appendRecord(rec[:0]); err != nil {
			return err
		}
		if err := begin(); err != nil {
			return err
		}
		db.mu.Lock()
		rid, had := db.ridOf[oid]
		db.mu.Unlock()
		newRID, err := db.put(tid, rid, had, rec)
		if err != nil {
			return err
		}
		if !had || newRID != rid {
			moved = append(moved, placed{oid, newRID})
		}
	}

	rootsRID := storage.InvalidRID
	if ws.rootsDirty {
		if err := begin(); err != nil {
			return err
		}
		db.mu.Lock()
		rec = encodeRoots(db.roots)
		rid := db.rootsRID
		db.mu.Unlock()
		var err error
		if rootsRID, err = db.put(tid, rid, rid.Valid(), rec); err != nil {
			return err
		}
	}

	if begun {
		if err := db.store.Commit(tid); err != nil { //lint:allow lockdiscipline ws is txn-private during the durability callback and storage never re-enters oodb
			return err
		}
	}
	if rootsRID.Valid() {
		db.mu.Lock()
		db.rootsRID = rootsRID
		db.mu.Unlock()
	}
	db.publish(ws, moved)
	return nil
}

// placed is a record's RID that a flush created or moved.
type placed struct {
	oid OID
	rid storage.RID
}

// put writes rec as a new record, or over the one at rid when had,
// returning where it now lives.
func (db *DB) put(tid uint64, rid storage.RID, had bool, rec []byte) (storage.RID, error) {
	if had {
		return db.store.Update(tid, rid, rec)
	}
	return db.store.Insert(tid, rec)
}

// publish applies a committed write set to the catalog: deleted
// objects leave the object table, the transient address space and
// their extent and release their values; created and relocated
// records are entered under their new RIDs.
func (db *DB) publish(ws *writeSet, moved []placed) {
	if len(ws.deleted) == 0 && len(moved) == 0 {
		return
	}
	db.mu.Lock()
	for oid, obj := range ws.deleted {
		if !obj.Deleted() {
			continue
		}
		delete(db.ridOf, oid)
		delete(db.cache, oid)
		if ext := db.extents[obj.class.Name]; ext != nil {
			delete(ext, oid)
		}
	}
	for _, m := range moved {
		db.ridOf[m.oid] = m.rid
	}
	db.mu.Unlock()
	for _, obj := range ws.deleted {
		if obj.Deleted() {
			obj.release()
		}
	}
}

// persistReachableLocked extends the dirty set with every transient
// object reachable by reference from a persistent dirty object —
// persistence by reachability, the model O2 uses (§4). The targets are
// not X-locked by the transaction, so their dirtyIn marks stay as they
// are: a map of the listed objects keeps the list free of duplicates.
func (db *DB) persistReachableLocked(ws *writeSet) {
	queue := make([]*Object, 0, len(ws.dirty))
	listed := make(map[OID]bool, len(ws.dirty))
	for _, obj := range ws.dirty {
		listed[obj.oid] = true
		if obj.Persistent() && !obj.Deleted() {
			queue = append(queue, obj)
		}
	}
	seen := make(map[OID]bool)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if seen[obj.oid] {
			continue
		}
		seen[obj.oid] = true
		for i, a := range obj.class.attrs {
			if a.Type != TRef {
				continue
			}
			ref, _ := obj.get(i).(OID)
			if ref == 0 {
				continue
			}
			db.mu.Lock()
			target := db.cache[ref]
			db.mu.Unlock()
			if target == nil || target.Deleted() {
				continue
			}
			target.mu.Lock()
			fresh := !target.persistent
			target.persistent = true
			target.mu.Unlock()
			if !listed[ref] {
				listed[ref] = true
				ws.dirty = append(ws.dirty, target)
				queue = append(queue, target)
			} else if fresh {
				queue = append(queue, target)
			}
		}
	}
}

// flushAbort is the durability callback for abort: the storage
// transaction (if one was begun by a failed flush) is rolled back.
func (db *DB) flushAbort(t *txn.Txn) error {
	if db.store == nil {
		return nil
	}
	reloc, err := db.store.Abort(t.ID())
	if err != nil {
		if errors.Is(err, storage.ErrUnknownTxn) {
			return nil // flush never began a storage transaction
		}
		return err
	}
	if len(reloc) > 0 {
		db.mu.Lock()
		for oid, rid := range db.ridOf {
			if nr, ok := reloc[rid]; ok {
				db.ridOf[oid] = nr
			}
		}
		if nr, ok := reloc[db.rootsRID]; ok {
			db.rootsRID = nr
		}
		db.mu.Unlock()
	}
	return nil
}

// EvictClean drops unpinned clean objects from the transient address
// space (used by tests to force faulting).
func (db *DB) EvictClean() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for oid, obj := range db.cache {
		if obj.Persistent() && !obj.Deleted() {
			delete(db.cache, oid)
		}
	}
}

// StorageStats reports storage-manager counters (zero Stats for an
// in-memory database).
func (db *DB) StorageStats() storage.Stats {
	if db.store == nil {
		return storage.Stats{}
	}
	return db.store.Stats()
}

// Checkpoint takes a fuzzy checkpoint: committed state is flushed
// concurrently with in-flight transactions and fully covered WAL
// segments are pruned. A no-op for an in-memory database.
func (db *DB) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	return db.store.Checkpoint()
}

// CheckpointLag reports WAL bytes accumulated since the last
// completed checkpoint and the configured byte trigger (0, 0 for an
// in-memory database) — the storage backpressure signal the overload
// governor watches.
func (db *DB) CheckpointLag() (lag, trigger int64) {
	if db.store == nil {
		return 0, 0
	}
	return db.store.CheckpointLag()
}

// CheckpointHealth reports the store's durability health snapshot
// (zero value for an in-memory database).
func (db *DB) CheckpointHealth() storage.CheckpointHealth {
	if db.store == nil {
		return storage.CheckpointHealth{}
	}
	return db.store.CheckpointHealth()
}

// Close closes the database and its store.
func (db *DB) Close() error {
	if db.store == nil {
		return nil
	}
	return db.store.Close()
}

// Ctx is the invocation context handed to method bodies.
type Ctx struct {
	DB  *DB
	Txn *txn.Txn
}

// Get reads an attribute of obj.
func (c *Ctx) Get(obj *Object, attr string) (any, error) { return c.DB.Get(c.Txn, obj, attr) }

// Set writes an attribute of obj.
func (c *Ctx) Set(obj *Object, attr string, v any) error { return c.DB.Set(c.Txn, obj, attr, v) }

// Invoke calls a method on obj.
func (c *Ctx) Invoke(obj *Object, method string, args ...any) (any, error) {
	return c.DB.Invoke(c.Txn, obj, method, args...)
}

// Root fetches a named root object.
func (c *Ctx) Root(name string) (*Object, error) { return c.DB.Root(c.Txn, name) }

// New creates a transient object.
func (c *Ctx) New(class string) (*Object, error) { return c.DB.NewObject(c.Txn, class) }

// Load dereferences an OID.
func (c *Ctx) Load(oid OID) (*Object, error) { return c.DB.Load(c.Txn, oid) }

// GetInt reads an int attribute, with a zero fallback on type error.
func (c *Ctx) GetInt(obj *Object, attr string) (int64, error) {
	v, err := c.Get(obj, attr)
	if err != nil {
		return 0, err
	}
	x, _ := v.(int64)
	return x, nil
}

// GetFloat reads a float attribute.
func (c *Ctx) GetFloat(obj *Object, attr string) (float64, error) {
	v, err := c.Get(obj, attr)
	if err != nil {
		return 0, err
	}
	x, _ := v.(float64)
	return x, nil
}

// GetString reads a string attribute.
func (c *Ctx) GetString(obj *Object, attr string) (string, error) {
	v, err := c.Get(obj, attr)
	if err != nil {
		return "", err
	}
	x, _ := v.(string)
	return x, nil
}
