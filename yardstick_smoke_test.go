package reach_test

import (
	"context"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestYardstickSmoke vets and smoke-tests ./benchmark. The yardstick is
// a module of its own (it must build from its own directory), so the
// root's go build ./... and go test ./... never compile it; this test
// is what makes a layer change that breaks it fail tier-1.
func TestYardstickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, args := range [][]string{{"vet", "."}, {"test", "-count=1", "."}} {
		cmd := exec.CommandContext(ctx, goTool, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in ./benchmark: %v\n%s", args, err, out)
		}
	}
}
