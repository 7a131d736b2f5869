package remote

import (
	"fmt"
	"sort"

	"repro/internal/simclock"
)

// The storage-tier backend registry. The paper backs the remote evidence
// chain with both local storage servers and Amazon S3; here every tier is
// an ObjectStore behind a name, so the server, the experiments, and the
// CLI select one with a flag instead of hard-wiring a constructor.
//
//	mem    in-process map — the free, zero-latency tier tests use
//	dir    a local storage server's filesystem, rooted at a directory
//	s3sim  the modeled cloud tier: latency, request/storage cost,
//	       multipart uploads, eventually-consistent LIST

// backends maps each tier's name to its constructor, which takes the root
// directory of filesystem-backed tiers; it is never written.
var backends = map[string]func(dir string) (ObjectStore, error){
	"mem": func(string) (ObjectStore, error) { return NewMemStore(), nil },
	"dir": func(dir string) (ObjectStore, error) {
		if dir == "" {
			return nil, fmt.Errorf("remote: dir backend needs a root directory")
		}
		return NewDirStore(dir)
	},
	"s3sim": func(string) (ObjectStore, error) { return NewS3Sim(), nil },
}

// OpenBackend builds the named storage tier; dir roots the filesystem-backed
// "dir" tier, and the others ignore it.
func OpenBackend(name, dir string) (ObjectStore, error) {
	f, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("remote: unknown backend %q (have %v)", name, Backends())
	}
	return f(dir)
}

// Backends lists the registered tier names, sorted.
func Backends() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TierStatter is implemented by backends that keep a cost/latency ledger
// (s3sim); Store surfaces it so experiments can read the model without
// knowing the concrete tier.
type TierStatter interface {
	TierStats() TierStats
}

// ServiceTimeModeler is implemented by backends whose Put has a modeled
// service time (s3sim). The server reads it per segment and threads it
// into the durability ack, so the device's OffloadAckTime reflects the
// backend it is actually protected by. Free local tiers simply don't
// implement it and ack with zero service time.
type ServiceTimeModeler interface {
	PutServiceTime(n int) simclock.Duration
}

// BackendProfile carries a tier's offload tuning defaults: how deep the
// device should stage and where its retention watermarks should sit. A
// high-latency cloud tier wants a deeper staging queue (more acks in
// flight to hide the round trip) and an earlier high watermark (start
// draining sooner, since each drain takes longer to become durable) than a
// local storage server does.
type BackendProfile struct {
	OffloadQueueDepth int
	OffloadHighWater  float64
	OffloadLowWater   float64
}

// profiles maps each tier to its tuning; it is never written.
var profiles = map[string]BackendProfile{
	"mem":   {OffloadQueueDepth: 8, OffloadHighWater: 0.50, OffloadLowWater: 0.25},
	"dir":   {OffloadQueueDepth: 8, OffloadHighWater: 0.50, OffloadLowWater: 0.25},
	"s3sim": {OffloadQueueDepth: 32, OffloadHighWater: 0.40, OffloadLowWater: 0.20},
}

// Profile returns the named tier's offload tuning defaults.
func Profile(name string) BackendProfile {
	if p, ok := profiles[name]; ok {
		return p
	}
	return BackendProfile{OffloadQueueDepth: 8, OffloadHighWater: 0.50, OffloadLowWater: 0.25}
}

// Settler is implemented by eventually-consistent backends whose LIST view
// can be forced current (s3sim). ReloadSettled uses it.
type Settler interface {
	Settle()
}
