//go:build poison

package txn

// poisonBuild makes a reclaimed transaction trap instead of reading as
// a zero one: its owner calls Poison where it would zero it, and Status
// panics on the poison status, while the nil manager and parent trap
// any other use.
const poisonBuild = true

// poisonStatus is the impossible status a poisoned transaction carries.
const poisonStatus Status = -0x5eed

// poisonID is the ID a poisoned transaction reports.
const poisonID = 0xdead_0000_dead_0000

// Poison overwrites t, a resolved transaction whose memory its owner
// reclaims, with trapping values: an impossible status, poisonID, and
// nil manager and parent pointers. The owner zeroes it again before
// BeginChildIn begins another transaction there.
func (t *Txn) Poison() {
	*t = Txn{id: poisonID} // m and parent nil
	t.status.Store(int32(poisonStatus))
}
