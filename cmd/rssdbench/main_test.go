package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestUnknownExperimentExits2(t *testing.T) {
	var stderr strings.Builder
	for _, name := range []string{"nope", "recovery-speed", "forensics", "offload", "lifetime", "attacks"} {
		stderr.Reset()
		if code := run([]string{"-exp", name}, io.Discard, &stderr); code != 2 {
			t.Errorf("-exp %s: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), "registered: all, fig2,") {
			t.Errorf("-exp %s: registry not printed: %q", name, stderr.String())
		}
	}
}

func TestFlagTheExperimentDoesNotReadExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig2", "-devices", "4"},
		{"-exp", "recovery", "-seed", "3"},
		{"-exp", "dedup", "-servers", "2"},
		{"-devices", "4"}, // -exp all: fig2 reads no -devices
	} {
		var stderr strings.Builder
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "is not read by -exp") {
			t.Errorf("%v: stderr %q", args, stderr.String())
		}
	}
}

// TestSoakHeaderNamesWhatItRead runs the CI soak and checks its BENCH
// header: exactly the flags the soak reads, with the values it ran.
func TestSoakHeaderNamesWhatItRead(t *testing.T) {
	t.Chdir(t.TempDir())
	if code := run([]string{"-exp", "soak", "-short", "-json"}, io.Discard, os.Stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	blob, err := os.ReadFile("BENCH_soak.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Experiment string
		Short      bool
		Flags      map[string]any
		Rows       struct{ Devices, Servers, Seed int }
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"devices": 3.0, "servers": 3.0, "seed": 1.0}
	if bench.Experiment != "soak" || !bench.Short || !reflect.DeepEqual(bench.Flags, want) {
		t.Fatalf("header %q short=%v flags %v, want soak, short, %v", bench.Experiment, bench.Short, bench.Flags, want)
	}
	if r := bench.Rows; r.Devices != 3 || r.Servers != 3 || r.Seed != 1 {
		t.Fatalf("the soak ran %+v, not what its header says", r)
	}
}
