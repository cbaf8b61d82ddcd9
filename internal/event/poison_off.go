//go:build !poison

package event

// poisonBuild is set by the poison build tag (make poison), under which
// Recycle leaves a released instance trapping: see poison_on.go.
const poisonBuild = false

func poison(*Instance, []any) {}
