package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/batch"
	"repro/internal/host"
	"repro/internal/nvme"
	"repro/internal/simclock"
)

// Every input of a round is made here, in set-up: the preconditioning fill,
// the benign trace with its page contents, and the user corpus, the cover
// traffic and the attack as the batches the filesystem submitted for them,
// ciphertext included. Timed regions only hand these to the program.

// prng is xoshiro256**, seeded through splitmix64. It fills page contents
// about ten times faster than math/rand, which keeps set-up short, and it
// is a rand.Source64 so rand.Zipf can draw from it.
type prng struct{ s [4]uint64 }

func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newPRNG derives an independent stream from the run seed and a stream
// label (device index, purpose), so adding a consumer never shifts the
// draws of another.
func newPRNG(seed uint64, labels ...uint64) *prng {
	x := seed
	for _, l := range labels {
		x = splitmix(&x) ^ (l * 0xD6E8FEB86659FD93)
	}
	p := &prng{}
	for i := range p.s {
		p.s[i] = splitmix(&x)
	}
	return p
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

func (p *prng) Uint64() uint64 {
	s := &p.s
	r := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return r
}

func (p *prng) Int63() int64   { return int64(p.Uint64() >> 1) }
func (p *prng) Seed(int64)     {}
func (p *prng) intn(n int) int { return int(p.Uint64() % uint64(n)) }
func (p *prng) float() float64 { return float64(p.Uint64()>>11) / (1 << 53) }

func (p *prng) fill(b []byte) {
	for len(b) >= 8 {
		v := p.Uint64()
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		b = b[8:]
	}
	if len(b) > 0 {
		v := p.Uint64()
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
}

const phrase = "status: nominal; next maintenance window pending approval. "

// benignPage fills page with randomFrac incompressible bytes followed by
// text, the content model of internal/workload: it deflates well and its
// sampled entropy stays far below the detector's ciphertext threshold.
func benignPage(p *prng, page []byte, randomFrac float64) {
	cut := int(randomFrac * float64(len(page)))
	p.fill(page[:cut])
	for i := cut; i < len(page); i += copy(page[i:], phrase) {
	}
}

// traceRec is one benign request, ready to submit: the batch form for the
// direct front and the NVMe command for the queue-pair front share the same
// payload bytes.
type traceRec struct {
	at  simclock.Time
	ops []batch.Op
	cmd nvme.Command
}

// hostBatch is one file-level host request, as the filesystem submitted it
// to the device when the set-up pass ran: a whole-file create, read or
// overwrite, or the trims of a delete.
type hostBatch struct {
	// wait is the simulated time the host let pass before the request, on
	// top of the device's own latency: the timing attack lying low.
	wait simclock.Duration
	ops  []batch.Op
}

// deviceInputs is everything one device consumes in one round.
type deviceInputs struct {
	precond []batch.Op  // set-up: fills the trace range once
	corpus  []hostBatch // set-up: creates the user corpus
	trace   []traceRec  // phase A: benign block traffic
	cover   []hostBatch // phase A: benign file traffic, before the cut
	attack  []hostBatch // phase A: the attack, after the cut (nil: not attacked)

	// shadow is the expected content hash per LPN at the cut; an absent LPN
	// reads as zeroes. It is the only copy of the expected image.
	shadow map[uint64][sha256.Size]byte

	// Phase A's host work: requests (trace records and file-level requests),
	// pages they move, pages written, and pages read that are mapped at the
	// time (those reach the NAND).
	requests   int
	pages      int
	writePages int
	readPages  int

	// filePages and fileHostNs are the pages of corpus, cover and attack and
	// the wall time internal/attack and host.FlatFS took to produce them,
	// the recording device's own time taken out.
	filePages  int
	fileHostNs int64
}

// release drops every payload so the forced GC that samples the live heap
// sees the program's memory, not the harness's.
func (in *deviceInputs) release() {
	in.precond, in.corpus, in.trace, in.cover, in.attack = nil, nil, nil, nil, nil
}

// recorder is the device under the set-up pass. The user corpus, the cover
// traffic and the attack are not scripted by the harness: the repo's own
// attack.CoverTraffic and attack.Attack models run here, in set-up, on a
// host.FlatFS over this device, which remembers the payload each LPN holds
// (the expected image) and every batch the filesystem submits. Phase A hands
// those batches to the device under test, so the attack's encryption and
// the filesystem's allocator stay off the clock, and a change to the attack
// models reaches the benchmark.
type recorder struct {
	base, pages uint64            // the filesystem's window of the device
	image       map[uint64][]byte // payload per mapped LPN of the device
	// discard is false while benign traffic runs: the filesystem is mounted
	// without discard, so its deletes free pages without trimming them
	// (README, lead 1). The attack trims.
	discard bool
	out     *[]hostBatch  // where submissions are recorded; nil: nowhere
	last    simclock.Time // when the previous recorded batch was submitted
	ns      int64         // wall time spent in here while recording
}

// apply updates the image with ops addressed in device LPNs.
func (r *recorder) apply(ops []batch.Op) {
	for _, op := range ops {
		switch op.Kind {
		case batch.OpWrite:
			r.image[op.LPN] = op.Data
		case batch.OpTrim:
			delete(r.image, op.LPN)
		}
	}
}

// SubmitBatch completes at once: the filesystem's clock then moves only
// when the host waits, which is what hostBatch.wait records. The
// filesystem builds a fresh slice per submission and never reads the LPNs
// back, so the batch is shifted to device LPNs in place and kept.
func (r *recorder) SubmitBatch(ops []batch.Op, at simclock.Time) ([]batch.Result, simclock.Time, error) {
	t0 := time.Now()
	res := make([]batch.Result, len(ops))
	if len(ops) == 0 || (ops[0].Kind == batch.OpTrim && !r.discard) {
		return res, at, nil
	}
	for i := range ops {
		ops[i].LPN += r.base
		res[i].Done = at
		if ops[i].Kind == batch.OpRead {
			res[i].Data = r.image[ops[i].LPN]
		}
	}
	r.apply(ops)
	if r.out != nil {
		*r.out = append(*r.out, hostBatch{wait: at.Sub(r.last), ops: ops})
		r.last = at
		r.ns += int64(time.Since(t0))
	}
	return res, at, nil
}

// The per-page methods complete host.BlockDevice; the filesystem submits
// batches.
func (r *recorder) Write(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.SubmitOne(r, batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: data}, at)
	return done, err
}

func (r *recorder) Read(lpn uint64, at simclock.Time) ([]byte, simclock.Time, error) {
	res, done, err := batch.SubmitOne(r, batch.Op{Kind: batch.OpRead, LPN: lpn}, at)
	return res.Data, done, err
}

func (r *recorder) Trim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.SubmitOne(r, batch.Op{Kind: batch.OpTrim, LPN: lpn}, at)
	return done, err
}

func (r *recorder) PageSize() int        { return pageSize }
func (r *recorder) LogicalPages() uint64 { return r.pages }

// record runs fn and returns the batches the filesystem submitted meanwhile.
func (r *recorder) record(in *deviceInputs, fn func() error) ([]hostBatch, error) {
	var out []hostBatch
	r.out = &out
	t0, inside := time.Now(), r.ns
	err := fn()
	in.fileHostNs += int64(time.Since(t0)) - (r.ns - inside)
	r.out = nil
	for i := range out {
		in.filePages += len(out[i].ops)
	}
	return out, err
}

// newAttack is the repo's model of the workload's attack.
func (sp *spec) newAttack(key [32]byte) attack.Attack {
	switch sp.attack {
	case atkTiming:
		return &attack.TimingAttack{Key: key, FilesPerBurst: sp.filesPerBurst, BurstInterval: sp.burstInterval, CoverOpsPerOp: sp.coverPerFile}
	case atkTrimming:
		return &attack.TrimmingAttack{Key: key}
	case atkGC:
		return &attack.GCAttack{Key: key, Rounds: sp.floodRounds}
	}
	return &attack.Encryptor{Key: key}
}

// genFiles runs one device's file-level story against the recorder: the
// corpus, the cover traffic, and, on an attacked device, the attack. It
// leaves the recorded batches, their page counts and the image at the cut in
// in.
func genFiles(sp *spec, seed uint64, dev int, in *deviceInputs) error {
	r := &recorder{base: uint64(sp.fsBase), pages: uint64(sp.fsPages), image: make(map[uint64][]byte, sp.wsPages+sp.fsPages)}
	// The block trace and the filesystem share no LPN, so the image does not
	// depend on how phase A orders them.
	r.apply(in.precond)
	for i := range in.trace {
		r.apply(in.trace[i].ops)
	}
	fs := host.NewFlatFS(r, simclock.NewClock())
	content := newPRNG(seed, uint64(dev), 2)
	span := sp.corpusMaxPages - sp.corpusMinPages + 1
	var err error
	in.corpus, err = r.record(in, func() error {
		for i := 0; i < sp.corpusFiles; i++ {
			// File sizes cycle instead of being drawn, so the attack's length,
			// and with it the restore's size, does not move with the seed; the
			// contents do.
			data := make([]byte, (sp.corpusMinPages+(i*7)%span)*pageSize)
			benignPage(content, data, 0.1)
			if err := fs.Create(fmt.Sprintf("user/doc-%04d.dat", i), data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	// The models draw which file, which kind of edit and the edit's bytes
	// from one stream. It is labelled by device, not by the
	// seed, for the same reason file sizes cycle: the detector's lag then
	// measures the detector, not the draw.
	rng := rand.New(newPRNG(shapeSeed, uint64(dev), 3))
	in.cover, err = r.record(in, func() error {
		cover := attack.NewCoverTraffic(coverEditFrac)
		for k := 0; k < sp.coverSteps; k++ {
			if err := cover.Step(fs, rng); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cover traffic: %w", err)
	}
	in.shadow = make(map[uint64][sha256.Size]byte, len(r.image))
	for lpn, data := range r.image {
		in.shadow[lpn] = sha256.Sum256(data)
	}
	for _, d := range sp.attacked {
		if d != dev {
			continue
		}
		var key [32]byte
		content.fill(key[:])
		r.discard = true
		in.attack, err = r.record(in, func() error {
			_, err := sp.newAttack(key).Run(fs, rng)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", sp.attack, err)
		}
	}
	// Every file a request reads exists, so all its reads are mapped.
	for _, batches := range [][]hostBatch{in.cover, in.attack} {
		for _, b := range batches {
			in.requests++
			in.pages += len(b.ops)
			switch b.ops[0].Kind {
			case batch.OpWrite:
				in.writePages += len(b.ops)
			case batch.OpRead:
				in.readPages += len(b.ops)
			}
		}
	}
	return nil
}

// sharedPool is the fleet-shared page pool of ingest_fanin: the same bytes
// written by several devices, which the server's content-addressed store
// keeps once.
func sharedPool(seed uint64, pages, pageSize int, randomFrac float64) [][]byte {
	if pages == 0 {
		return nil
	}
	rng := newPRNG(seed, 0x5001)
	pool := make([][]byte, pages)
	for i := range pool {
		pool[i] = make([]byte, pageSize)
		benignPage(rng, pool[i], randomFrac)
	}
	return pool
}

// genDevice makes one device's inputs for a round. pool may be nil.
func genDevice(sp *spec, seed uint64, dev int, pool [][]byte) (*deviceInputs, error) {
	in := &deviceInputs{}
	ps := pageSize
	rng := newPRNG(seed, uint64(dev), 1)

	// Preconditioning: every LPN of the trace range is written once, so the
	// trace overwrites mapped pages and produces retained versions from its
	// first request on.
	in.precond = make([]batch.Op, sp.precondPages)
	fill := make([]byte, sp.precondPages*ps)
	for i := range in.precond {
		page := fill[i*ps : (i+1)*ps]
		benignPage(rng, page, sp.randomFrac)
		in.precond[i] = batch.Op{Kind: batch.OpWrite, LPN: uint64(i), Data: page}
	}

	// The benign trace: zipf-skewed addresses over the working set, request
	// sizes uniform in 1..maxReqPages, arrivals every gapUs of simulated time.
	lbasPerPage := uint64(ps / nvme.LBASize)
	hot := sp.wsPages - sp.trimPages
	zipf := rand.NewZipf(rand.New(rng), sp.zipfS, 1, uint64(hot-1))
	in.trace = make([]traceRec, 0, sp.records)
	mapped := make([]bool, sp.wsPages)
	for i := 0; i < sp.precondPages && i < sp.wsPages; i++ {
		mapped[i] = true
	}
	in.requests = sp.records
	for i := 0; i < sp.records; i++ {
		pages := 1 + rng.intn(sp.maxReqPages)
		lpn := zipf.Uint64()
		if lpn+uint64(pages) > uint64(hot) {
			lpn = uint64(hot - pages)
		}
		rec := traceRec{
			at:  simclock.Time(i+1) * simclock.Time(sp.gapUs) * simclock.Time(simclock.Microsecond),
			ops: make([]batch.Op, pages),
			cmd: nvme.Command{CID: uint16(i), SLBA: lpn * lbasPerPage, NLB: uint32(pages) * uint32(lbasPerPage)},
		}
		switch r := rng.float(); {
		case r < sp.trimFrac:
			// A delete frees cold pages: trims fall on the top trimPages of
			// the range, which the trace never writes or reads. See the
			// README's leads for why a trimmed page must not have been
			// overwritten before.
			lpn = uint64(hot + rng.intn(sp.trimPages-pages+1))
			rec.cmd.SLBA = lpn * lbasPerPage
			rec.cmd.Opcode = nvme.OpDSM
			for p := range rec.ops {
				rec.ops[p] = batch.Op{Kind: batch.OpTrim, LPN: lpn + uint64(p)}
				mapped[lpn+uint64(p)] = false
			}
		case r < sp.trimFrac+sp.writeFrac:
			rec.cmd.Opcode = nvme.OpWrite
			data := make([]byte, pages*ps)
			for p := range rec.ops {
				page := data[p*ps : (p+1)*ps]
				if pool != nil && rng.float() < sp.sharedFrac {
					copy(page, pool[rng.intn(len(pool))])
				} else {
					benignPage(rng, page, sp.randomFrac)
				}
				rec.ops[p] = batch.Op{Kind: batch.OpWrite, LPN: lpn + uint64(p), Data: page}
				mapped[lpn+uint64(p)] = true
			}
			rec.cmd.Data = data
			in.writePages += pages
		default:
			rec.cmd.Opcode = nvme.OpRead
			for p := range rec.ops {
				rec.ops[p] = batch.Op{Kind: batch.OpRead, LPN: lpn + uint64(p)}
				if mapped[lpn+uint64(p)] {
					in.readPages++
				}
			}
		}
		in.pages += pages
		in.trace = append(in.trace, rec)
	}

	if err := genFiles(sp, seed, dev, in); err != nil {
		return nil, fmt.Errorf("device %d inputs: %w", dev+1, err)
	}
	return in, nil
}
