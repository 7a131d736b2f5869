// Package forensic implements RSSD's trusted post-attack analysis: it
// reassembles the complete, tamper-evident timeline of storage operations
// from the remote prefix and the device's local log suffix, verifies the
// hash chain end to end, backtracks from a detection alert to the attack
// window, and identifies the victim pages recovery must restore.
//
// Because every entry was produced below the block interface and either
// chained on-device or already durably offloaded, a host-resident attacker
// cannot rewrite this history after the fact — any splice, mutation, or
// truncation breaks the chain and is reported instead of silently
// accepted. That is the paper's "trusted evidence chain".
package forensic

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/ftl"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// Analysis errors.
var (
	ErrChainBroken = errors.New("forensic: evidence chain broken")
	ErrNoAttack    = errors.New("forensic: no suspicious activity found")
)

// Analyzer reconstructs and analyzes a device's operation history.
type Analyzer struct {
	dev      *core.RSSD
	client   *remote.Client // may be nil: local log only
	zeroHash [oplog.HashSize]byte
}

// minClusterMarks and clusterSpan separate attack activity from benign
// noise: a suspicious operation is confirmed only when at least
// minClusterMarks suspicious operations fall within a clusterSpan-entry
// neighbourhood. Ransomware touches many pages in bursts; a legitimate
// trimmed delete is isolated.
const (
	minClusterMarks = 4
	clusterSpan     = 64
)

// NewAnalyzer returns an analyzer over the device's local log and,
// optionally, its remote store session.
func NewAnalyzer(dev *core.RSSD, client *remote.Client) *Analyzer {
	return &Analyzer{
		dev: dev, client: client,
		zeroHash: oplog.HashData(make([]byte, dev.PageSize())),
	}
}

// Evidence is the verified, merged timeline.
type Evidence struct {
	Entries       []oplog.Entry
	RemoteEntries int
	LocalEntries  int
	ChainIntact   bool
	// BrokenAt, when ChainIntact is false, is the index of the first
	// entry that fails verification.
	BrokenAt int
}

// Timeline fetches the remote prefix, appends the local suffix, and
// verifies the whole hash chain from genesis. It returns the evidence and
// ErrChainBroken (with partial evidence) if verification fails.
//
// Each entry is hashed once. The remote prefix is one fetch, streamed in
// frames that arrive as chains already derived and held against each frame's
// last hash (remote.Client.AppendEntries, on every core), so what is owed for
// the prefix is that the frames chain onto each other from the zero genesis
// hash with contiguous sequences — a compare per entry. The local suffix,
// which the device sealed and no server can forge, is verified in full onto
// the last remote hash: that is the anchor the remote prefix is believed by.
//
// The server's head is a claim about a chain this device issued, so it is
// held against the device's own log before anything is sized by it: a head
// past the device's next sequence is refused with no fetch made.
func (a *Analyzer) Timeline() (*Evidence, error) {
	log := a.dev.Log()
	var entries []oplog.Entry
	if a.client != nil {
		head, err := a.client.Head()
		if err != nil {
			return nil, fmt.Errorf("forensic: fetch head: %w", err)
		}
		issued := log.NextSeq()
		if head.NextSeq > issued {
			return nil, fmt.Errorf("forensic: remote head %d is past the %d entries this device issued", head.NextSeq, issued)
		}
		// One allocation for the whole timeline: the remote prefix, each
		// frame derived into its place, and the local suffix behind it.
		entries = make([]oplog.Entry, 0, issued)
		if entries, err = a.client.AppendEntries(entries, 0, head.NextSeq); err != nil {
			return nil, fmt.Errorf("forensic: fetch entries [0,%d): %w", head.NextSeq, err)
		}
	}
	ev := &Evidence{RemoteEntries: len(entries), ChainIntact: true}
	var broken *oplog.ChainError
	var prev [oplog.HashSize]byte
	for i := range entries {
		e := &entries[i]
		if e.PrevHash != prev || e.Seq != uint64(i) {
			broken = &oplog.ChainError{Index: i, Seq: e.Seq, Reason: "fetched entry does not extend the chain before it"}
			break
		}
		prev = e.Hash
	}
	// Local suffix: everything at or beyond what the remote holds.
	entries = append(entries, log.Entries(uint64(ev.RemoteEntries), log.NextSeq())...)
	ev.Entries = entries
	ev.LocalEntries = len(entries) - ev.RemoteEntries
	if broken == nil {
		if err := oplog.VerifyChain(entries[ev.RemoteEntries:], prev); errors.As(err, &broken) {
			broken.Index += ev.RemoteEntries // an index into the merged timeline
		}
	}
	if broken != nil {
		ev.ChainIntact = false
		ev.BrokenAt = broken.Index
		return ev, fmt.Errorf("%w: %v", ErrChainBroken, broken)
	}
	return ev, nil
}

// Window is the reconstructed attack interval and its victim set.
type Window struct {
	StartSeq  uint64 // first suspicious operation
	EndSeq    uint64 // one past the last suspicious operation
	StartTime simclock.Time
	EndTime   simclock.Time
	// Victims are the logical pages recovery must roll back: pages
	// encrypted in place, read-then-encrypted, or trimmed by the attack.
	Victims []uint64
	// SuspiciousOps counts the operations classified as malicious.
	SuspiciousOps int
	// Breakdown by kind.
	EncryptWrites  int
	MaliciousTrims int
}

func (w Window) String() string {
	return fmt.Sprintf("attack window seq [%d,%d) time [%v,%v]: %d suspicious ops (%d encrypting writes, %d trims), %d victim pages",
		w.StartSeq, w.EndSeq, w.StartTime, w.EndTime, w.SuspiciousOps, w.EncryptWrites, w.MaliciousTrims, len(w.Victims))
}

// AttackWindow scans the whole timeline for ransomware-patterned operations
// and returns the bounding window and victim set. Recovery actions are
// ignored by kind. alertSeq is not read: the scan does not start at the alert.
func (a *Analyzer) AttackWindow(ev *Evidence, alertSeq uint64) (Window, error) {
	type mark struct {
		idx  int
		lpn  uint64
		trim bool
	}
	recentReads := map[uint64]uint64{}
	var marks []mark
	for i := range ev.Entries {
		e := &ev.Entries[i]
		switch e.Kind {
		case oplog.KindRead:
			recentReads[e.LPN] = e.Seq
		case oplog.KindWrite:
			overwrite := e.OldPPN != ftl.NoPPN
			if overwrite && e.DataHash == a.zeroHash {
				// Zero-wipe: destructive overwrite with zeroes (wiper
				// malware); low entropy, but unmistakable by content.
				marks = append(marks, mark{idx: i, lpn: e.LPN})
				continue
			}
			if !entropy.IsHigh(float64(e.Entropy)) {
				continue
			}
			readSeq, paired := recentReads[e.LPN]
			if overwrite || (paired && e.Seq-readSeq <= oplog.ReadHorizon) {
				marks = append(marks, mark{idx: i, lpn: e.LPN})
			}
		case oplog.KindTrim:
			if readSeq, paired := recentReads[e.LPN]; paired && e.Seq-readSeq <= oplog.ReadHorizon {
				marks = append(marks, mark{idx: i, lpn: e.LPN, trim: true})
			}
		}
	}
	// Confirm only clustered marks: ransomware encrypts or trims many
	// pages in bursts, so each genuine mark has neighbours; an isolated
	// benign trimmed-delete does not.
	w := Window{}
	victims := map[uint64]struct{}{}
	first, last := -1, -1
	for i, m := range marks {
		lo, hi := i, i
		for lo > 0 && m.idx-marks[lo-1].idx <= clusterSpan {
			lo--
		}
		for hi < len(marks)-1 && marks[hi+1].idx-m.idx <= clusterSpan {
			hi++
		}
		if hi-lo+1 < minClusterMarks {
			continue
		}
		victims[m.lpn] = struct{}{}
		w.SuspiciousOps++
		if m.trim {
			w.MaliciousTrims++
		} else {
			w.EncryptWrites++
		}
		if first < 0 {
			first = m.idx
		}
		last = m.idx
	}
	if first < 0 {
		return Window{}, ErrNoAttack
	}
	w.StartSeq = ev.Entries[first].Seq
	w.EndSeq = ev.Entries[last].Seq + 1
	w.StartTime = ev.Entries[first].At
	w.EndTime = ev.Entries[last].At
	w.Victims = make([]uint64, 0, len(victims))
	for lpn := range victims {
		w.Victims = append(w.Victims, lpn)
	}
	sort.Slice(w.Victims, func(i, j int) bool { return w.Victims[i] < w.Victims[j] })
	return w, nil
}

// PageHistory returns every logged operation touching lpn, in order — the
// per-page drill-down an investigator reads.
func (a *Analyzer) PageHistory(ev *Evidence, lpn uint64) []oplog.Entry {
	var out []oplog.Entry
	for _, e := range ev.Entries {
		if e.LPN == lpn && e.Kind != oplog.KindCheckpoint && e.Kind != oplog.KindOffload {
			out = append(out, e)
		}
	}
	return out
}

// WriteReport renders a human-readable investigation report.
func (a *Analyzer) WriteReport(w io.Writer, ev *Evidence, win Window) error {
	fmt.Fprintf(w, "RSSD Post-Attack Analysis Report\n")
	fmt.Fprintf(w, "================================\n\n")
	fmt.Fprintf(w, "Evidence chain: %d entries (%d remote, %d local)\n",
		len(ev.Entries), ev.RemoteEntries, ev.LocalEntries)
	if ev.ChainIntact {
		fmt.Fprintf(w, "Chain integrity: VERIFIED (unbroken SHA-256 chain from genesis)\n\n")
	} else {
		fmt.Fprintf(w, "Chain integrity: BROKEN at index %d — evidence after this point is untrusted\n\n", ev.BrokenAt)
	}
	fmt.Fprintf(w, "%s\n\n", win)
	fmt.Fprintf(w, "Victim pages (first 20): ")
	n := len(win.Victims)
	if n > 20 {
		n = 20
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d ", win.Victims[i])
	}
	if len(win.Victims) > 20 {
		fmt.Fprintf(w, "… (%d total)", len(win.Victims))
	}
	fmt.Fprintf(w, "\n\nOperation mix in window:\n")
	counts := map[oplog.Kind]int{}
	for _, e := range ev.Entries {
		if e.Seq >= win.StartSeq && e.Seq < win.EndSeq {
			counts[e.Kind]++
		}
	}
	for _, k := range []oplog.Kind{oplog.KindWrite, oplog.KindRead, oplog.KindTrim, oplog.KindRecovery} {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", k, counts[k])
		}
	}
	return nil
}
