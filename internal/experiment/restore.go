package experiment

import (
	"bytes"
	"fmt"
	"net"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/nvmeoe"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// restoreRun is the one power-on restore harness every fleet experiment
// drives its restores through (recovery, dedup, soak). It owns the pieces
// the experiments used to copy-paste: the dial factory, the reopen over
// the surviving flash, the mid-stream choke injection, the streamed
// RestoreImage call charged to the recovery link's NIC arbiter, and the
// page-identical verification — so the link/NIC setup lives in exactly
// one place.
type restoreRun struct {
	Server *remote.Server
	// Dial overrides the session factory. Nil dials the Server loopback;
	// the chaos soak dials through its cluster instead, so restore
	// sessions pass the fault injector's WrapConn like any other.
	Dial func() (*remote.Client, error)
	// Link is the restore-class charge point on the NIC arbiter (private
	// or shared — the caller decides by how it builds the link).
	Link *remote.RecoveryLink
	// ChunkPages bounds pages per streamed chunk; 0 sizes chunks to the
	// NIC grant quantum for the device's page size.
	ChunkPages int
	Dedup      bool // hash-reference chunks
	Delta      bool // checkpoint-anchored delta stream
	// Choke kills the first recovery session mid-stream so the restorer
	// must resume (not restart) on a fresh session.
	Choke bool
	// Gate, when set, is called once after this device's first restore
	// session dials — inside the RestoreImage link-session bracket. A
	// fleet experiment passes a barrier here so every device is provably
	// mid-restore at once (the link's peak-sessions gauge reads the fleet
	// size by construction, not by scheduling luck).
	Gate func()
}

// restoredDevice is what a run hands back. The caller owns dev and client
// and closes both (the fleet experiment keeps them open for its
// post-restore outage drain).
type restoredDevice struct {
	dev      *core.RSSD
	client   *remote.Client
	at       simclock.Time
	rep      core.RestoreReport
	verified bool // every `want` page read back identical
}

// run reopens one device over its surviving flash, stream-restores the
// image at `cut`, and verifies it page-identical against `want`.
func (rr restoreRun) run(cfg core.Config, nd *nand.Device, deviceID, cut uint64,
	want map[uint64][]byte, endAt simclock.Time) (*restoredDevice, error) {
	srv := rr.Server
	dial := rr.Dial
	if dial == nil {
		dial = func() (*remote.Client, error) { return remote.Loopback(srv, PSK, deviceID) }
	}
	cfg.Dial = dial // the reopened device redials dead offload sessions itself

	client, err := dial()
	if err != nil {
		return nil, err
	}
	dev, err := core.Reopen(cfg, nd, client)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("reopen: %w", err)
	}
	fail := func(err error) (*restoredDevice, error) {
		dev.Close()
		client.Close()
		return nil, err
	}

	// The choked device's first recovery session dies mid-stream: the
	// restorer must resume from its cursor on a fresh session.
	restoreDial := dial
	if rr.Choke {
		dials := 0
		restoreDial = func() (*remote.Client, error) {
			dials++
			if dials == 1 {
				dc, sc := net.Pipe()
				go srv.HandleConn(sc)
				// Handshake (2 reads) + one 3-read chunk frame: the link
				// dies with the first chunk applied and the rest unsent.
				return remote.Dial(remote.NewChokeConn(dc, 5), PSK, deviceID)
			}
			return dial()
		}
	}

	if gate := rr.Gate; gate != nil {
		inner := restoreDial
		fired := false
		restoreDial = func() (*remote.Client, error) {
			c, err := inner()
			if err == nil && !fired {
				fired = true
				gate()
			}
			return c, err
		}
	}

	chunkPages := rr.ChunkPages
	if chunkPages == 0 {
		chunkPages = int(nvmeoe.ChunkPagesForQuantum(dev.FTL().PageSize()))
	}
	at, rep, err := dev.RestoreImage(cut, core.RestoreOptions{
		Dial:       restoreDial,
		Link:       rr.Link,
		ChunkPages: chunkPages,
		Dedup:      rr.Dedup,
		Delta:      rr.Delta,
	}, endAt)
	if err != nil {
		return fail(fmt.Errorf("restore: %w", err))
	}
	if rr.Choke && rep.Resumes == 0 {
		return fail(fmt.Errorf("choked device restored without a resume (disconnect not exercised)"))
	}

	rd := &restoredDevice{dev: dev, client: client, at: at, rep: rep, verified: true}
	for lpn, w := range want {
		got, _, err := dev.Read(lpn, at)
		if err != nil {
			return fail(fmt.Errorf("verify read lpn %d: %w", lpn, err))
		}
		if !bytes.Equal(got, w) {
			rd.verified = false
			break
		}
	}
	return rd, nil
}
