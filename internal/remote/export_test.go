package remote

import (
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// appendDecoded ingests seg as the server's session does: decoded from its
// marshal, the derived entries handed to the store.
func appendDecoded(st *Store, seg *oplog.Segment) error {
	raw := seg.Marshal()
	decoded, err := oplog.UnmarshalSegment(raw)
	if err != nil {
		return err
	}
	return st.AppendSegmentBlob(decoded, nvmeoe.EncodeSegmentBlob(raw))
}
