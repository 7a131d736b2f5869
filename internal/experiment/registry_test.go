package experiment

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestBenchHeadersMatchRegistry holds every committed BENCH_*.json to the
// registry: it names an entry, and its header's flags are exactly the ones
// that entry reads.
func TestBenchHeadersMatchRegistry(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Experiment string
			Flags      map[string]any
		}
		if err := json.Unmarshal(blob, &h); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		e, ok := Lookup(h.Experiment)
		if !ok {
			t.Errorf("%s: experiment %q is not in the registry", path, h.Experiment)
			continue
		}
		if got, want := slices.Sorted(maps.Keys(h.Flags)), slices.Sorted(slices.Values(e.Reads)); !slices.Equal(got, want) {
			t.Errorf("%s: header flags %v, but %s reads %v", path, got, e.Name, want)
		}
	}
}

// TestRegistryReadsBoundFlags keeps every entry's read set inside the
// options rssdbench binds, and its defaults valid at both sizes.
func TestRegistryReadsBoundFlags(t *testing.T) {
	var o Options
	fs := o.flags()
	for _, e := range Registry {
		for _, name := range e.Reads {
			if fs.Lookup(name) == nil || name == "short" {
				t.Errorf("%s reads -%s, which is not an option flag", e.Name, name)
			}
		}
		for _, short := range []bool{false, true} {
			if _, err := e.Resolve(Options{Short: short}, nil); err != nil {
				t.Errorf("%s (short %v): defaults do not resolve: %v", e.Name, short, err)
			}
		}
	}
}
