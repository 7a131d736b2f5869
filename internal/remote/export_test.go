package remote

import (
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// appendDecoded ingests seg as the server's lane does: decoded from its
// marshal, the derived entries handed to the store.
func appendDecoded(st *Store, seg *oplog.Segment) error {
	raw := seg.Marshal()
	decoded, err := oplog.UnmarshalSegment(raw)
	if err != nil {
		return err
	}
	return st.AppendSegmentBlob(decoded, nvmeoe.EncodeSegmentBlob(raw))
}

// ingestStats returns the server's ingest ledger for one device; the server
// itself reports only IngestTotals, its sum over devices.
func (s *Server) ingestStats(deviceID uint64) IngestStats {
	s.mu.Lock()
	l := s.ingest[deviceID]
	s.mu.Unlock()
	var st IngestStats
	if l != nil {
		l.mu.Lock()
		st = l.st
		l.mu.Unlock()
	}
	return st
}
