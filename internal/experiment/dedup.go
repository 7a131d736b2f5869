package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nand"
	"repro/internal/netsim"
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
	dedupDupFactor  = 4
	dedupDivergePct = 30
	dedupWireGate   = 0.35 // dedup wire at 512 devices vs full model
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
	// Server-side ledger cross-check (the one server's RecoveryStats).
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

// DedupResult is the full dedup experiment report.
type DedupResult struct {
	Measured DedupMeasured
	Scaling  []DedupScalePoint
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
	nand     *nand.Device
	cut      uint64
	want     map[uint64][]byte
	endAt    simclock.Time
	diverged int
	rep      core.RestoreReport
	verified bool
}

// dedupSetup writes the image corpus, checkpoints, diverges, and powers
// off one device.
func (r *fleetRig) dedupSetup(id uint64, imagePages, uniquePages int) (*dedupDevice, error) {
	rd, err := r.device(id, false)
	if err != nil {
		return nil, err
	}
	defer rd.close()
	dev := rd.dev
	d := &dedupDevice{want: make(map[uint64][]byte, imagePages)}

	// Two write passes: v1 (the as-installed image) then v2 (an update
	// wave, the pre-attack state). The overwrite retires every v1 page
	// into the remote store, so the full-image stream has a stale
	// version to haul for every LPN — the history a real device accretes
	// and exactly what the checkpoint anchor exists to skip. Both passes
	// draw from shared content spaces so dedup works across devices.
	at := simclock.Time(0)
	page := make([]byte, r.s.PageSize)
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
	rng := rand.New(rand.NewSource(int64(900 + id)))
	junk := make([]byte, r.s.PageSize)
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

// dedupCohort runs one full cohort (setup + concurrent restore) on the
// rig: each device powers back on and restores its checkpointed image,
// verified page-identical.
func (r *fleetRig) dedupCohort(devices, imagePages, uniquePages int, dedup bool) (DedupCohort, []*dedupDevice, error) {
	co := DedupCohort{Dedup: dedup}
	devs := make([]*dedupDevice, devices)
	if err := spawn(devices, func(i int) (err error) {
		devs[i], err = r.dedupSetup(uint64(i+1), imagePages, uniquePages)
		return err
	}); err != nil {
		return co, nil, fmt.Errorf("setup: %w", err)
	}
	// Leak check around the restore storm: the outstanding-buffer gauge
	// may move only by the pooled pages the surviving NAND arrays hold
	// for restored flash content.
	pool := r.markPool()
	if err := spawn(devices, func(i int) error {
		d := devs[i]
		rd, err := r.restore(uint64(i+1), d.nand, d.cut, d.want, d.endAt, restoreOpts{
			chunkPages: 64, dedup: dedup,
		})
		if err != nil {
			return err
		}
		d.rep, d.verified = rd.rep, rd.verified
		rd.close()
		return nil
	}); err != nil {
		return co, nil, fmt.Errorf("restore: %w", err)
	}
	if drift := r.poolDrift(pool); drift != 0 {
		return co, nil, fmt.Errorf(
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
	return co, devs, nil
}

// dedupRTOModel projects the measured per-device restore onto an N-device
// fleet sharing the recovery NIC: the local (flash + apply) component is
// what measured RTO exceeds the measured link charge by, and the link
// charge rescales with the fair-share N/BW.
func dedupRTOModel(meanRTOms, meanChunks, wireBytes float64, measuredDevices, n int) float64 {
	rttMs := float64(netsim.DefaultRTT) / 1e6
	bytesPerMs := float64(netsim.DefaultMBps) * 1e6 / 1e3
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
	s = fleetScale(s)

	// Size the image from the device geometry, bounded by the scale's
	// replay budget so -short stays CI-sized.
	imagePages := min(int(s.ftlConfig().LogicalPages())/2, s.TraceOps/2)
	uniquePages := max(imagePages/dedupDupFactor, 1)

	// Each cohort restores on its own one-server stack.
	fullRig := newFleetRig(s, rigSpec{tune: remote.Profile("mem")})
	defer fullRig.close()
	full, fullDevs, err := fullRig.dedupCohort(devices, imagePages, uniquePages, false)
	if err != nil {
		return nil, fmt.Errorf("full cohort: %w", err)
	}
	r := newFleetRig(s, rigSpec{tune: remote.Profile("mem")})
	defer r.close()
	dedup, dedupDevs, err := r.dedupCohort(devices, imagePages, uniquePages, true)
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
		if r.audit(id, nil).chainErr != nil {
			m.ChainsOK = false
		}
	}
	rs := r.cluster.Server(0).RecoveryStats()
	m.ServerPagesLiteral, m.ServerPagesRef = rs.PagesLiteral, rs.PagesRef
	ds := r.store.Dedup()
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

	p8, p512 := scaling[0], scaling[len(scaling)-1]
	linear := float64(p512.Devices) / float64(p8.Devices)
	growth := p512.RTODedupMs / p8.RTODedupMs
	var v verdicts
	v.check(m.AllVerified, "a restored image was not page-identical")
	v.check(m.ChainsOK, "an evidence chain failed verification")
	v.check(p512.WireRatio <= dedupWireGate, "wire ratio %.3f at %d devices exceeds %.2f", p512.WireRatio, p512.Devices, dedupWireGate)
	v.check(growth < linear, "RTO growth %d->%d is %.1fx (>= linear %.0fx)", p8.Devices, p512.Devices, growth, linear)
	return &DedupResult{Measured: m, Scaling: scaling}, v.err("dedup")
}
