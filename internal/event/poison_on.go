//go:build poison

package event

// poisonBuild makes Recycle overwrite a released instance with values
// no occurrence carries, so that a reader holding it past its release
// sees them instead of a plausible zero occurrence; Get clears it.
const poisonBuild = true

// Poison values of a released instance.
const (
	poisonKind Kind = -0x5eed
	poisonSeq       = 0xdead_0000_dead_0000
)

// poison overwrites in with poison values: an impossible kind and spec
// key, poison sequence number, transaction and object IDs, and an empty
// argument list and nil Origin and parts, which trap an index or a type
// assertion.
func poison(in *Instance, args []any) {
	clear(args[:cap(args)])
	*in = Instance{SpecKey: "poisoned", Kind: poisonKind, Seq: poisonSeq, Txn: poisonSeq, OID: poisonSeq, Args: args}
}
