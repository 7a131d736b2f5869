package nvme

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simclock"
)

// TestExecutorMatchesLBAModel: the one command executor, driven by a seeded
// mix of writes, reads and deallocations whose edges fall anywhere in a
// page, keeps every logical block where a byte-per-LBA model says it is —
// over the bare FTL and over the RSSD firmware. A deallocation zeroes only
// the pages it covers whole; the blocks at its partial edges keep their data.
func TestExecutorMatchesLBAModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctrl func() *Controller
	}{{"ftl", newCtrl}, {"rssd", newRSSDCtrl}} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.ctrl()
			q := c.QueuePair(8)
			lpp := int(c.lbasPerPage)
			const pages = 40
			span := pages * lpp
			model := make([]byte, span) // the byte every byte of an LBA holds
			rng := rand.New(rand.NewSource(1))
			var at simclock.Time
			run := func(cmd Command) Completion {
				t.Helper()
				if err := q.Submit(cmd); err != nil {
					t.Fatal(err)
				}
				done := q.Process(0, at)
				comp, err := q.Reap()
				if err != nil {
					t.Fatal(err)
				}
				if comp.Status != StatusSuccess || comp.At < at || done != comp.At {
					t.Fatalf("%v %d+%d: status %v, done %v at %v (issued at %v)", cmd.Opcode, cmd.SLBA, cmd.NLB, comp.Status, done, comp.At, at)
				}
				at = done
				return comp
			}
			check := func(what string, slba int, data []byte) {
				t.Helper()
				for i, b := range data {
					if lba := slba + i/LBASize; b != model[lba] {
						t.Fatalf("%s: LBA %d byte %d = %#x, model %#x", what, lba, i%LBASize, b, model[lba])
					}
				}
			}
			for i := range 1000 {
				// Up to one, two or four pages; a third of the commands
				// start on a page boundary and a third end on one.
				slba := rng.Intn(span)
				if rng.Intn(3) == 0 {
					slba -= slba % lpp
				}
				nlb := 1 + rng.Intn(min(lpp<<rng.Intn(3), span-slba))
				if end := slba + nlb; rng.Intn(3) == 0 && end%lpp != 0 && end-end%lpp > slba {
					nlb -= end % lpp
				}
				cmd := Command{CID: uint16(i), SLBA: uint64(slba), NLB: uint32(nlb)}
				switch rng.Intn(3) {
				case 0:
					cmd.Opcode, cmd.Data = OpWrite, make([]byte, nlb*LBASize)
					for k := range nlb {
						v := byte(1 + rng.Intn(255))
						model[slba+k] = v
						for j := range LBASize {
							cmd.Data[k*LBASize+j] = v
						}
					}
					run(cmd)
				case 1:
					cmd.Opcode = OpRead
					comp := run(cmd)
					if len(comp.Data) != nlb*LBASize {
						t.Fatalf("read %d+%d: %d bytes", slba, nlb, len(comp.Data))
					}
					check(fmt.Sprintf("command %d, read %d+%d", i, slba, nlb), slba, comp.Data)
				case 2:
					cmd.Opcode = OpDSM
					run(cmd)
					for p := (slba + lpp - 1) / lpp; p < (slba+nlb)/lpp; p++ {
						clear(model[p*lpp : (p+1)*lpp])
					}
				}
			}
			comp := run(Command{Opcode: OpRead, CID: 0xffff, SLBA: 0, NLB: uint32(span)})
			check("final read", 0, comp.Data)
		})
	}
}
