package host

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/simclock"
)

func newFS() *FlatFS {
	cfg := ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.2,
	}
	return NewFlatFS(ftl.New(cfg, nil), simclock.NewClock())
}

func TestCreateReadRoundTrip(t *testing.T) {
	fs := newFS()
	data := bytes.Repeat([]byte("hello world "), 100) // 1200 bytes, 3 pages
	if err := fs.Create("doc.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	pages, err := fs.Extents("doc.txt")
	if err != nil || len(pages) != 3 {
		t.Fatalf("extents = %v, %v", pages, err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := newFS()
	fs.Create("a", []byte("1"))
	if err := fs.Create("a", []byte("2")); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := newFS()
	if _, err := fs.ReadFile("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Extents("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteSameSize(t *testing.T) {
	fs := newFS()
	fs.Create("f", bytes.Repeat([]byte{1}, 1024))
	before, _ := fs.Extents("f")
	if err := fs.Overwrite("f", bytes.Repeat([]byte{2}, 1024)); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.Extents("f")
	if len(before) != len(after) || before[0] != after[0] {
		t.Fatal("same-size overwrite moved the file")
	}
	got, _ := fs.ReadFile("f")
	if got[0] != 2 {
		t.Fatal("overwrite not visible")
	}
}

func TestOverwriteGrow(t *testing.T) {
	fs := newFS()
	fs.Create("f", []byte("small"))
	big := bytes.Repeat([]byte{9}, 5000)
	if err := fs.Overwrite("f", big); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("f")
	if !bytes.Equal(got, big) {
		t.Fatal("grown file mismatch")
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	fs := newFS()
	free0 := fs.free
	fs.Create("f", bytes.Repeat([]byte{1}, 2048)) // 4 pages
	if fs.free != free0-4 {
		t.Fatalf("free = %d, want %d", fs.free, free0-4)
	}
	if err := fs.Delete("f", false); err != nil {
		t.Fatal(err)
	}
	if fs.free != free0 {
		t.Fatal("delete did not free pages")
	}
	if err := fs.Delete("f", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestDeleteWithTrimIssuesTrims(t *testing.T) {
	dev := ftl.New(ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.2,
	}, nil)
	fs := NewFlatFS(dev, simclock.NewClock())
	fs.Create("f", bytes.Repeat([]byte{1}, 1536)) // 3 pages
	if err := fs.Delete("f", true); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Trims; got != 3 {
		t.Fatalf("trims = %d, want 3", got)
	}
}

func TestListSorted(t *testing.T) {
	fs := newFS()
	fs.Create("zeta", []byte("1"))
	fs.Create("alpha", []byte("2"))
	got := fs.List()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("List = %v", got)
	}
}

func TestFillToCapacity(t *testing.T) {
	fs := newFS()
	page := int(fs.Device().PageSize())
	var created int
	for i := 0; ; i++ {
		err := fs.Create(string(rune('A'+i%26))+string(rune('0'+i/26)), bytes.Repeat([]byte{byte(i)}, page*8))
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		created++
		if i > 10000 {
			t.Fatal("never filled up")
		}
	}
	if created == 0 {
		t.Fatal("no files created")
	}
	// Free one file and confirm allocation works again.
	if err := fs.Delete(fs.List()[0], false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("again", bytes.Repeat([]byte{1}, page)); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFileOwnsOnePage(t *testing.T) {
	fs := newFS()
	free0 := fs.free
	fs.Create("empty", nil)
	if fs.free != free0-1 {
		t.Fatal("empty file should own one page")
	}
	got, err := fs.ReadFile("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read = %v, %v", got, err)
	}
}

func TestClockAdvancesWithIO(t *testing.T) {
	fs := newFS()
	t0 := fs.Clock().Now()
	fs.Create("f", bytes.Repeat([]byte{1}, 4096))
	if fs.Clock().Now() <= t0 {
		t.Fatal("I/O did not advance simulated time")
	}
}

// Property: any sequence of create/overwrite/delete keeps file contents
// faithful to a shadow map.
func TestFSConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		fs := newFS()
		shadow := map[string][]byte{}
		names := []string{"a", "b", "c", "d"}
		for i, op := range ops {
			name := names[int(op>>2)%len(names)]
			content := bytes.Repeat([]byte{byte(i + 1)}, int(op%2048)+1)
			switch op % 3 {
			case 0:
				err := fs.Create(name, content)
				if _, exists := shadow[name]; exists {
					if !errors.Is(err, ErrExists) {
						return false
					}
				} else if err == nil {
					shadow[name] = content
				} else if !errors.Is(err, ErrNoSpace) {
					return false
				}
			case 1:
				err := fs.Overwrite(name, content)
				if _, exists := shadow[name]; !exists {
					if !errors.Is(err, ErrNotFound) {
						return false
					}
				} else if err == nil {
					shadow[name] = content
				} else if !errors.Is(err, ErrNoSpace) {
					return false
				}
			case 2:
				err := fs.Delete(name, op%2 == 0)
				if _, exists := shadow[name]; !exists {
					if !errors.Is(err, ErrNotFound) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					delete(shadow, name)
				}
			}
		}
		for name, want := range shadow {
			got, err := fs.ReadFile(name)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
