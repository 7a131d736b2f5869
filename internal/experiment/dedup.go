package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The dedup experiment quantifies what content addressing buys fleet
// restore. Each device writes an OS-image-shaped corpus twice:
// incompressible page contents drawn from a shared base (the same ~N/4
// unique pages on every device, each appearing ~4 times per image —
// package caches, shared libraries), where the second pass is an update
// wave that retires every page's first version into the remote store.
// Then a pre-attack checkpoint, then a divergence phase that scrambles
// ~30% of the image with device-private junk. Every device power-cycles
// and restores the checkpointed image twice — once over the full-literal,
// full-image stream, which hauls the newest-before-cut version of every
// LPN with remote history (the whole churned image), and once over the
// content-addressed path, where the checkpoint anchor drops every LPN
// untouched since the checkpoint and hash references collapse repeated
// contents among the rest. Both restores are verified page-identical with
// the evidence chain intact. The measured per-device wire/RTO feed a
// fleet scaling model over the shared recovery NIC, which is where the
// gates bind: dedup wire at 512 devices must be <= 0.35x the full-image
// model and dedup RTO growth 8 -> 512 must stay sub-linear.

// dedupDupFactor is how many times each unique content appears in one
// image; dedupDivergePct is the fraction of the image the post-checkpoint
// phase touches.
const (
	dedupDupFactor   = 4
	dedupDivergePct  = 30
	dedupWireGate    = 0.35 // dedup wire at 512 devices vs full model
	dedupScaleFrom   = 8
	dedupScaleTo     = 512
)

// DedupCohort is one measured restore cohort (dedup on or off).
type DedupCohort struct {
	Dedup        bool
	MeanRTOms    float64
	MaxRTOms     float64
	WireMiB      float64 // fleet total restore wire
	MeanChunks   float64
	LiteralPages int
	RefPages     int
	HitRate      float64 // refs / (refs + literals)
	Resumes      int
}

// DedupMeasured is the measured (simulated-fleet) half of the result.
type DedupMeasured struct {
	Devices       int
	ImagePages    int // pages per device image
	UniquePages   int // distinct contents in the shared base corpus
	DivergedPages int // mean pages scrambled after the checkpoint per device
	Full          DedupCohort
	Dedup         DedupCohort
	WireRatio     float64 // dedup wire / full wire, per device
	AllVerified   bool
	ChainsOK      bool
	// Store-side content dedup on the dedup cohort's store: unique
	// physical pages vs logical page versions across the fleet.
	StoreUniquePages int
	StoreTotalRefs   int64
	StoreHitRate     float64
	// Server-side ledger cross-check (summed RecoveryStats).
	ServerPagesLiteral uint64
	ServerPagesRef     uint64
}

// DedupScalePoint is one row of the modeled fleet scaling curve: the
// measured per-device stream replayed over the shared recovery NIC at N
// devices, for both restore models.
type DedupScalePoint struct {
	Devices      int
	WireFullMiB  float64 // fleet restore wire, full-image model
	WireDedupMiB float64 // fleet restore wire, dedup + delta model
	WireRatio    float64 // dedup / full
	RTOFullMs    float64 // modeled per-device RTO, full-image
	RTODedupMs   float64 // modeled per-device RTO, dedup + delta
	SpeedupX     float64
}

// DedupAllocs is the steady-state alloc audit of the dedup hot path.
type DedupAllocs struct {
	HashAllocsPerOp   float64
	EncodeAllocsPerOp float64
	Skipped           bool // race build: instrumentation allocates
}

// DedupResult is the full dedup experiment report.
type DedupResult struct {
	Measured DedupMeasured
	Scaling  []DedupScalePoint
	Allocs   DedupAllocs
}

// dedupPage fills p with the incompressible content of one corpus page.
// Contents are deterministic in contentID alone, so every device that
// writes contentID c writes the same bytes — the cross-device dedup the
// fleet model rests on.
func dedupPage(p []byte, contentID int) {
	rng := rand.New(rand.NewSource(int64(0x5EED0000 + contentID)))
	rng.Read(p)
}

// dedupDevice carries one device of a cohort across its power cycle.
type dedupDevice struct {
	cfg      core.Config
	nand     *nand.Device
	cut      uint64
	want     map[uint64][]byte
	endAt    simclock.Time
	diverged int
	rep      core.RestoreReport
	verified bool
}

// runDedupSetup writes the image corpus, checkpoints, diverges, and powers
// off one device.
func runDedupSetup(s Scale, srv *remote.Server, deviceID uint64, imagePages, uniquePages int) (*dedupDevice, error) {
	client, err := remote.Loopback(srv, PSK, deviceID)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	cfg := core.DefaultConfig()
	cfg.FTL = s.ftlConfig()
	cfg.DeviceID = deviceID
	cfg.OffloadHighWater = 0.50
	cfg.OffloadLowWater = 0.25
	dev := core.New(cfg, client)
	defer dev.Close()
	d := &dedupDevice{cfg: cfg, want: make(map[uint64][]byte, imagePages)}

	// Two write passes: v1 (the as-installed image) then v2 (an update
	// wave, the pre-attack state). The overwrite retires every v1 page
	// into the remote store, so the full-image stream has a stale
	// version to haul for every LPN — the history a real device accretes
	// and exactly what the checkpoint anchor exists to skip. Both passes
	// draw from shared content spaces so dedup works across devices.
	at := simclock.Time(0)
	page := make([]byte, s.PageSize)
	for pass := 0; pass < 2; pass++ {
		for lpn := 0; lpn < imagePages; lpn++ {
			dedupPage(page, pass*uniquePages+lpn%uniquePages)
			if at, err = dev.Write(uint64(lpn), page, at); err != nil {
				return nil, err
			}
			if pass == 1 {
				d.want[uint64(lpn)] = append([]byte(nil), page...)
			}
		}
	}
	if at, err = dev.OffloadNow(at); err != nil {
		return nil, err
	}
	// The pre-attack checkpoint: the delta restore anchors here.
	if at, err = dev.CheckpointNow(at); err != nil {
		return nil, err
	}
	d.cut = dev.Log().NextSeq()

	// Divergence: scramble a random slice of the image with
	// device-private junk (an encryptor's write pattern — incompressible
	// and unique, so neither codec nor dedup can help these pages; only
	// the delta can, by being the only thing that needs streaming).
	rng := rand.New(rand.NewSource(int64(900 + deviceID)))
	junk := make([]byte, s.PageSize)
	for _, lpn := range rng.Perm(imagePages)[:imagePages*dedupDivergePct/100] {
		rng.Read(junk)
		if at, err = dev.Write(uint64(lpn), junk, at); err != nil {
			return nil, err
		}
		d.diverged++
	}
	if at, err = dev.OffloadNow(at); err != nil {
		return nil, err
	}
	d.nand = dev.FTL().Device()
	d.endAt = at
	return d, nil
}

// runDedupRestore powers the device back on and restores the checkpointed
// image through the shared restore harness, verifying page-identical.
func runDedupRestore(srv *remote.Server, link *remote.RecoveryLink, d *dedupDevice, deviceID uint64, dedup bool) error {
	rd, err := restoreRun{
		Server: srv, Link: link, ChunkPages: 64,
		Dedup: dedup, Delta: dedup,
	}.run(d.cfg, d.nand, deviceID, d.cut, d.want, d.endAt)
	if err != nil {
		return err
	}
	d.rep = rd.rep
	d.verified = rd.verified
	rd.dev.Close()
	rd.client.Close()
	return nil
}

// runDedupCohort runs one full cohort (setup + concurrent restore) on its
// own store and server, returning the cohort stats plus the store handle.
func runDedupCohort(s Scale, devices, imagePages, uniquePages int, dedup bool) (DedupCohort, *remote.Store, *remote.Server, []*dedupDevice, error) {
	co := DedupCohort{Dedup: dedup}
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, PSK)
	link := remote.NewRecoveryLink(0, 0)

	devs := make([]*dedupDevice, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			devs[i], errs[i] = runDedupSetup(s, srv, uint64(i+1), imagePages, uniquePages)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return co, nil, nil, nil, fmt.Errorf("device %d setup: %w", i+1, err)
		}
	}
	// Leak check around the restore storm: the outstanding-buffer gauge
	// may move only by the pooled pages the surviving NAND arrays hold
	// for restored flash content.
	poolBase := bufpool.Outstanding()
	var resBase int64
	for _, d := range devs {
		resBase += d.nand.HeldPageBufs()
	}
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runDedupRestore(srv, link, devs[i], uint64(i+1), dedup)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return co, nil, nil, nil, fmt.Errorf("device %d restore: %w", i+1, err)
		}
	}
	var resNow int64
	for _, d := range devs {
		resNow += d.nand.HeldPageBufs()
	}
	if drift := bufpool.Outstanding().Sub(poolBase).Total() - (resNow - resBase); drift != 0 {
		return co, nil, nil, nil, fmt.Errorf(
			"bufpool outstanding-buffer gauge drifted %+d beyond NAND residency across the restore cohort", drift)
	}

	var totalRTO, maxRTO simclock.Duration
	var wire uint64
	var chunks int
	for _, d := range devs {
		totalRTO += d.rep.RTO
		if d.rep.RTO > maxRTO {
			maxRTO = d.rep.RTO
		}
		wire += d.rep.BytesWire
		chunks += d.rep.Chunks
		co.LiteralPages += d.rep.PagesLiteral
		co.RefPages += d.rep.PagesRef
		co.Resumes += d.rep.Resumes
	}
	co.MeanRTOms = float64(totalRTO) / float64(devices) / 1e6
	co.MaxRTOms = float64(maxRTO) / 1e6
	co.WireMiB = float64(wire) / float64(1<<20)
	co.MeanChunks = float64(chunks) / float64(devices)
	if t := co.LiteralPages + co.RefPages; t > 0 {
		co.HitRate = float64(co.RefPages) / float64(t)
	}
	return co, store, srv, devs, nil
}

// dedupRTOModel projects the measured per-device restore onto an N-device
// fleet sharing the recovery NIC: the local (flash + apply) component is
// what measured RTO exceeds the measured link charge by, and the link
// charge rescales with the fair-share N/BW.
func dedupRTOModel(meanRTOms, meanChunks, wireBytes float64, measuredDevices, n int) float64 {
	rttMs := float64(remote.DefaultRecoveryRTT) / 1e6
	bytesPerMs := float64(remote.DefaultRecoveryMBps) * 1e6 / 1e3
	linkAt := func(n int) float64 {
		return meanChunks*rttMs + wireBytes*float64(n)/bytesPerMs
	}
	local := meanRTOms - linkAt(measuredDevices)
	if local < 0 {
		local = 0
	}
	return local + linkAt(n)
}

// DedupRestore runs the content-addressed restore experiment.
func DedupRestore(s Scale, devices int) (*DedupResult, error) {
	if devices <= 0 {
		devices = 8
	}
	s = fleetScale(s)

	// Size the image from the device geometry, bounded by the scale's
	// replay budget so -short stays CI-sized.
	probe := core.DefaultConfig()
	probe.FTL = s.ftlConfig()
	logical := int(core.New(probe, nil).LogicalPages())
	imagePages := logical / 2
	if cap := s.TraceOps / 2; imagePages > cap {
		imagePages = cap
	}
	uniquePages := imagePages / dedupDupFactor
	if uniquePages < 1 {
		uniquePages = 1
	}

	full, _, _, fullDevs, err := runDedupCohort(s, devices, imagePages, uniquePages, false)
	if err != nil {
		return nil, fmt.Errorf("full cohort: %w", err)
	}
	dedup, store, srv, dedupDevs, err := runDedupCohort(s, devices, imagePages, uniquePages, true)
	if err != nil {
		return nil, fmt.Errorf("dedup cohort: %w", err)
	}

	m := DedupMeasured{
		Devices:     devices,
		ImagePages:  imagePages,
		UniquePages: uniquePages,
		Full:        full,
		Dedup:       dedup,
		AllVerified: true,
		ChainsOK:    true,
	}
	var diverged int
	for _, d := range append(fullDevs, dedupDevs...) {
		if !d.verified {
			m.AllVerified = false
		}
	}
	for _, d := range dedupDevs {
		diverged += d.diverged
	}
	m.DivergedPages = diverged / devices
	if full.WireMiB > 0 {
		m.WireRatio = dedup.WireMiB / full.WireMiB
	}
	for i := 0; i < devices; i++ {
		id := uint64(i + 1)
		entries := store.Entries(id, 0, store.Head(id).NextSeq)
		if err := oplog.VerifyChain(entries, [oplog.HashSize]byte{}); err != nil {
			m.ChainsOK = false
		}
		rs := srv.RecoveryStats(id)
		m.ServerPagesLiteral += rs.PagesLiteral
		m.ServerPagesRef += rs.PagesRef
	}
	ds := store.Dedup()
	m.StoreUniquePages = ds.UniquePages
	m.StoreTotalRefs = ds.TotalRefs
	m.StoreHitRate = ds.HitRate()

	// The scaling curve: per-device wire is N-independent, the shared NIC
	// is not. Gates bind at the 512-device point.
	wireFullDev := full.WireMiB / float64(devices) * float64(1<<20)
	wireDedupDev := dedup.WireMiB / float64(devices) * float64(1<<20)
	var scaling []DedupScalePoint
	for _, n := range []int{8, 64, 512} {
		p := DedupScalePoint{
			Devices:      n,
			WireFullMiB:  wireFullDev * float64(n) / float64(1<<20),
			WireDedupMiB: wireDedupDev * float64(n) / float64(1<<20),
			RTOFullMs:    dedupRTOModel(full.MeanRTOms, full.MeanChunks, wireFullDev, devices, n),
			RTODedupMs:   dedupRTOModel(dedup.MeanRTOms, dedup.MeanChunks, wireDedupDev, devices, n),
		}
		if p.WireFullMiB > 0 {
			p.WireRatio = p.WireDedupMiB / p.WireFullMiB
		}
		if p.RTODedupMs > 0 {
			p.SpeedupX = p.RTOFullMs / p.RTODedupMs
		}
		scaling = append(scaling, p)
	}

	// Steady-state alloc audit of the dedup hot path: page hashing and
	// hash-ref chunk encode through pooled scratch.
	var allocs DedupAllocs
	if bufpool.RaceEnabled {
		allocs.Skipped = true
	} else {
		page := make([]byte, s.PageSize)
		dedupPage(page, 1)
		h := bufpool.GetHasher()
		allocs.HashAllocsPerOp = measureAllocs(2000, func() { h.Sum256(page) })
		h.Release()
		refPages := make([]nvmeoe.RefPage, 64)
		for i := range refPages {
			refPages[i].LPN = uint64(i)
			refPages[i].Hash = bufpool.GetHasher().Sum256(page)
			if i%2 == 0 {
				refPages[i].Data = page
			} else {
				refPages[i].Ref = true
			}
		}
		encode := func() {
			raw := bufpool.Get(nvmeoe.RefChunkWireSize(refPages))
			raw.B = nvmeoe.AppendRefChunk(raw.B, 1, refPages)
			blob := bufpool.Get(nvmeoe.BlobOverhead + len(raw.B))
			blob.B = nvmeoe.AppendSegmentBlob(blob.B, raw.B)
			blob.Release()
			raw.Release()
		}
		encode() // warm
		allocs.EncodeAllocsPerOp = measureAllocs(500, encode)
	}

	res := &DedupResult{Measured: m, Scaling: scaling, Allocs: allocs}

	// Hard gates: a regression here must fail the run, not prettify a
	// table.
	if !m.AllVerified {
		return res, fmt.Errorf("dedup gate: a restored image was not page-identical")
	}
	if !m.ChainsOK {
		return res, fmt.Errorf("dedup gate: an evidence chain failed verification")
	}
	p512 := scaling[len(scaling)-1]
	if p512.WireRatio > dedupWireGate {
		return res, fmt.Errorf("dedup gate: wire ratio %.3f at %d devices exceeds %.2f",
			p512.WireRatio, p512.Devices, dedupWireGate)
	}
	p8 := scaling[0]
	linear := float64(p512.Devices) / float64(p8.Devices)
	if growth := p512.RTODedupMs / p8.RTODedupMs; growth >= linear {
		return res, fmt.Errorf("dedup gate: RTO growth %d->%d is %.1fx (>= linear %.0fx)",
			p8.Devices, p512.Devices, growth, linear)
	}
	if !allocs.Skipped && (allocs.HashAllocsPerOp != 0 || allocs.EncodeAllocsPerOp != 0) {
		return res, fmt.Errorf("dedup gate: hot path allocates (hash %.2f/op, encode %.2f/op)",
			allocs.HashAllocsPerOp, allocs.EncodeAllocsPerOp)
	}
	return res, nil
}

// RenderDedup renders the dedup experiment report.
func RenderDedup(res *DedupResult) string {
	m := res.Measured
	out := fmt.Sprintf(
		"measured: %d devices, image %d pages (%d unique x%d), %d diverged/device after checkpoint\n"+
			"          full:  RTO mean %.2f ms, fleet wire %.2f MiB\n"+
			"          dedup: RTO mean %.2f ms, fleet wire %.2f MiB (%.2fx of full), hit rate %.0f%%, anchor delta\n"+
			"          store: %d unique pages / %d refs (%.0f%% content dedup); server ledger %d literal + %d ref\n",
		m.Devices, m.ImagePages, m.UniquePages, dedupDupFactor, m.DivergedPages,
		m.Full.MeanRTOms, m.Full.WireMiB,
		m.Dedup.MeanRTOms, m.Dedup.WireMiB, m.WireRatio, m.Dedup.HitRate*100,
		m.StoreUniquePages, m.StoreTotalRefs, m.StoreHitRate*100,
		m.ServerPagesLiteral, m.ServerPagesRef)
	if m.AllVerified && m.ChainsOK {
		out += "          all images page-identical, all chains verified\n"
	} else {
		out += "          VERIFICATION FAILED\n"
	}
	out += "scaling (modeled on the shared recovery NIC):\n"
	for _, p := range res.Scaling {
		out += fmt.Sprintf("          %4d devices: wire %9.2f -> %8.2f MiB (%.2fx), RTO %8.2f -> %8.2f ms (%.1fx faster)\n",
			p.Devices, p.WireFullMiB, p.WireDedupMiB, p.WireRatio, p.RTOFullMs, p.RTODedupMs, p.SpeedupX)
	}
	if res.Allocs.Skipped {
		out += "allocs:   skipped (race build)\n"
	} else {
		out += fmt.Sprintf("allocs:   hash %.2f/op, ref-chunk encode %.2f/op (steady state, gate 0)\n",
			res.Allocs.HashAllocsPerOp, res.Allocs.EncodeAllocsPerOp)
	}
	return out
}

// measureAllocs runs f ops times on one OS thread and returns the
// allocator's per-op average. Like testing.AllocsPerRun it warms once, pins
// GOMAXPROCS to 1, and divides the raw counter delta by the run count
// (integer division, exactly as AllocsPerRun reports).
func measureAllocs(ops int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm the pools and any lazy state
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(ops))
}
