package reach_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/oodb"
)

// TestDocsCiteLiveTests checks that every Test* and Benchmark* name the
// design, experiment and readme documents cite is defined in some
// _test.go file of the repository, so a deleted or renamed test cannot
// leave a document pointing at nothing.
func TestDocsCiteLiveTests(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z]\w*`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range cite.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
}

// TestEveryMetricHasAReader checks the registry against DESIGN.md §7's
// metric table. It opens a disk-backed system (so the storage, WAL and
// checkpoint series register), arms one failpoint (so
// reach_fault_injected_total does) and commits one transaction. Every
// registered family must have a row of the right kind, every row must
// name a registered family, and every Reader cell must name a reader:
// each of its ";"-separated items is a yardstick metric the benchmark
// declares ("yardstick `m`, `n`"), a resource the governor registers
// ("governor `r`"), or cites a test. Every reach_* name a test or the
// yardstick looks up must be registered too: a lookup creates what it
// does not find, so a renamed series would read as zero.
func TestEveryMetricHasAReader(t *testing.T) {
	defer fault.DisarmAll()
	sys, err := core.Open(core.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := fault.Arm(fault.SiteWALPrune, "error-every=1000000"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterClass(oodb.NewClass("Probe", oodb.Attr{Name: "n", Type: oodb.TInt})); err != nil {
		t.Fatal(err)
	}
	tx := sys.Begin()
	obj, err := sys.DB.NewObject(tx, "Probe")
	if err == nil {
		err = sys.DB.SetRoot(tx, "probe", obj)
	}
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]string{}
	for _, f := range sys.Metrics.Snapshot() {
		registered[f.Name] = f.Kind
	}
	resources := map[string]bool{}
	for _, r := range sys.Governor.Snapshot().Resources {
		resources[r.Name] = true
	}
	yardstick := map[string]bool{}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if src, err := os.ReadFile("BENCHMARK.json"); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(src, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		yardstick[m.Name] = true
	}

	rows := metricTable(t)
	quoted := regexp.MustCompile("`([^`]+)`")
	test := regexp.MustCompile(`\bTest[A-Z]\w*`)
	for name, row := range rows {
		kind, ok := registered[name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md §7 lists %s, which is not registered", name)
			continue
		case kind != row.kind:
			t.Errorf("DESIGN.md §7 lists %s as a %s; it is registered as a %s", name, row.kind, kind)
		case strings.TrimSpace(row.reader) == "":
			t.Errorf("DESIGN.md §7 names no reader for %s", name)
		}
		for _, item := range strings.Split(row.reader, ";") {
			item = strings.TrimSpace(item)
			var known map[string]bool
			switch {
			case item == "":
				continue
			case strings.HasPrefix(item, "yardstick "):
				known = yardstick
			case strings.HasPrefix(item, "governor "):
				known = resources
			case !test.MatchString(item):
				t.Errorf("DESIGN.md §7: reader %q of %s cites no test, yardstick metric or governor resource", item, name)
				continue
			default:
				continue
			}
			for _, m := range quoted.FindAllStringSubmatch(item, -1) {
				if !known[m[1]] {
					t.Errorf("DESIGN.md §7: reader %q of %s names %s, which does not exist", item, name, m[1])
				}
			}
		}
	}
	for name := range registered {
		if _, ok := rows[name]; !ok {
			t.Errorf("%s is registered but DESIGN.md §7 has no row for it", name)
		}
	}

	lookup := regexp.MustCompile(`"(reach_[a-z0-9_]+)"`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		bench := strings.HasPrefix(path, "benchmark"+string(filepath.Separator))
		if d.IsDir() || !strings.HasSuffix(path, ".go") || !bench && !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range lookup.FindAllSubmatch(src, -1) {
			if _, ok := registered[string(m[1])]; !ok {
				t.Errorf("%s looks up %s, which is not registered", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type metricRow struct{ kind, reader string }

// metricTable parses DESIGN.md §7's metric table (Name | Kind | Labels
// | Meaning | Reader; "\|" is a literal bar inside a cell).
func metricTable(t *testing.T) map[string]metricRow {
	t.Helper()
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(text)
	if i := strings.Index(section, "\n## 7. "); i >= 0 {
		section = section[i+1:]
	}
	if i := strings.Index(section, "\n## 8. "); i >= 0 {
		section = section[:i]
	}
	rows := map[string]metricRow{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `reach_") {
			continue
		}
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "\x00"), "|")
		if len(cells) != 7 {
			t.Errorf("DESIGN.md §7: row has %d cells, want Name | Kind | Labels | Meaning | Reader: %s", len(cells)-2, line)
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := rows[name]; dup {
			t.Errorf("DESIGN.md §7 lists %s twice", name)
		}
		rows[name] = metricRow{kind: strings.TrimSpace(cells[2]), reader: strings.ReplaceAll(cells[5], "\x00", "|")}
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §7 has no metric table")
	}
	return rows
}
