//go:build !poison

package txn

// poisonBuild is set by the poison build tag (make poison), which makes
// reclaimed transactions trap: see poison_on.go.
const poisonBuild = false

// poisonStatus is never stored outside the poison build.
const poisonStatus Status = -0x5eed
