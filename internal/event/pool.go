package event

import "sync"

// pool recycles Instance allocations on the raise path. Every
// monitored method call and attribute write mints an Instance; under
// load that is the dominant allocation in the sentry→engine hot path,
// so the database gets instances from here and returns them once the
// dispatcher's Emit has gone the whole round trip (detection is
// synchronous — Consume returns before Emit does).
var pool = sync.Pool{New: func() any { return new(Instance) }}

// Get returns a cleared Instance, reusing a pooled one when
// available. The Args slice keeps its backing array, truncated to
// zero length, so steady-state raises do not reallocate it. Callers
// that pass through Emit must hand the instance to Recycle afterwards.
func Get() *Instance {
	in := pool.Get().(*Instance)
	args := in.Args
	if args != nil {
		args = args[:0]
	}
	*in = Instance{Args: args}
	return in
}

// Retain marks the instance as escaping the synchronous dispatch: a
// deferred queue, a detached executor, or a composite composer will
// read it after Emit returns, so Recycle must leave it to the garbage
// collector. The flag is a plain bool: every Retain happens before
// Emit returns, which happens-before the raiser's Recycle call, and on
// the raising goroutine except where parallel sibling rules queue
// their deferred actions, which serialize on the queue's lock.
//
// Retain also pins the instance's Origin, when it is a pinner: the
// consumer reads the originating transaction's ID and outcome through
// it, so its owner must not reuse that transaction's memory.
func (in *Instance) Retain() {
	in.retained = true
	if p, ok := in.Origin.(pinner); ok {
		p.Pin()
	}
}

// pinner is an Origin whose memory its owner may reuse once it has
// resolved, unless it is pinned: a rule subtransaction (txn.Txn). The
// interface keeps this package free of the transaction manager.
type pinner interface{ Pin() }

// Recycle returns an instance obtained from Get to the pool, unless a
// consumer retained it. Safe to call with instances that did not come
// from Get — they simply enter the pool.
func Recycle(in *Instance) {
	if in == nil || in.retained {
		return
	}
	args := in.Args
	if args != nil {
		args = args[:0]
	}
	if poisonBuild {
		poison(in, args)
	} else {
		*in = Instance{Args: args}
	}
	pool.Put(in)
}
