package remote

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/simclock"
)

// S3Sim is an ObjectStore that behaves like Amazon S3 for the purposes the
// paper cares about: it is durable and elastic, but every operation has a
// modeled latency (first-byte time plus bytes over bandwidth), every
// request and stored GB-month has a dollar price, large blobs upload as
// multipart (per-part requests, parts in parallel lanes), and LIST is only
// eventually consistent — a freshly PUT key takes a while to appear in
// listings, which is exactly the hazard Store.Reload has to respect.
//
// Latency is accounted in simulated time, not slept: callers read the
// accrued model from TierStats and charge it where their own time base
// needs it. Get/Put are read-after-write consistent (as S3 is today); only
// LIST lags.
type S3Sim struct {
	mu      sync.Mutex
	data    map[string][]byte
	visible map[string]uint64 // key -> opSeq at which LIST starts showing it
	opSeq   uint64            // mutating operations so far (visibility clock)
	stats   TierStats
}

// The simulated cloud tier's model: S3 Standard's published us-east-1
// prices and a WAN path to it.
const (
	// s3FirstByte is the per-request latency floor (connection + service
	// time) charged to every request, and to every part of a multipart
	// upload; s3MBps is the sustained bandwidth to and from the bucket.
	s3FirstByte = 18 * simclock.Millisecond
	s3MBps      = 100
	// Per-request prices. DELETE is free on S3 and stays free here.
	s3PutUSD  = 0.005 / 1000
	s3GetUSD  = 0.0004 / 1000
	s3ListUSD = 0.005 / 1000
	// s3StorageUSDPerGBMonth prices data at rest.
	s3StorageUSDPerGBMonth = 0.023
	// An upload larger than s3PartSize is multipart: one initiate and one
	// complete request plus one PUT per part, parts transferring in
	// s3PartLanes parallel lanes. The part size is scaled to the simulated
	// segments, as the devices are: S3's real 8 MiB floor would never split
	// one, and the multipart cost path is part of what the tier models.
	s3PartSize  = 64 << 10
	s3PartLanes = 4
	// s3ListLag is the eventual-consistency window: a PUT key appears in
	// LIST results only after this many further mutating operations (or a
	// Settle call).
	s3ListLag = 8
)

// TierStats is the running cost/latency ledger of a modeled storage tier.
type TierStats struct {
	Puts             uint64
	MultipartUploads uint64
	Parts            uint64 // parts shipped across multipart uploads
	BytesStored      int64  // current at-rest footprint
	// PutLatency is the cumulative modeled Put service time (what segment
	// acks wait on).
	PutLatency simclock.Duration
	// RequestUSD is the accrued per-request cost (storage is priced
	// separately, per GB-month, via MonthlyStorageUSD).
	RequestUSD float64
}

// NewS3Sim returns an empty simulated bucket.
func NewS3Sim() *S3Sim {
	return &S3Sim{data: map[string][]byte{}, visible: map[string]uint64{}}
}

// s3Xfer models moving n bytes at the bucket's bandwidth.
func s3Xfer(n int) simclock.Duration {
	return simclock.Duration(float64(n) / (s3MBps * 1e6) * float64(simclock.Second))
}

// s3PutLatency models persisting an n-byte blob: first-byte plus transfer,
// with multipart round trips above the part-size threshold. It is the
// service time Put accrues and the number PutServiceTime exposes to the
// segment-ack path.
func s3PutLatency(n int) simclock.Duration {
	if n > s3PartSize {
		parts := (n + s3PartSize - 1) / s3PartSize
		rounds := (parts + s3PartLanes - 1) / s3PartLanes
		// initiate + complete, then each lane-round pays a first-byte;
		// the body transfer is bandwidth-bound regardless of lanes.
		return s3FirstByte*simclock.Duration(2+rounds) + s3Xfer(n)
	}
	return s3FirstByte + s3Xfer(n)
}

// PutServiceTime implements ServiceTimeModeler: the modeled service time
// of persisting an n-byte blob, which the server threads into segment
// acks so device-side OffloadAckTime reflects the backend. It reads only
// the model's constants, so no lock is taken — the segment-ingest hot path
// calls it once per accepted blob.
func (s *S3Sim) PutServiceTime(n int) simclock.Duration {
	return s3PutLatency(n)
}

// Put stores a copy of data, charging request cost and modeled latency.
// Blobs above s3PartSize upload as multipart: per-part PUT requests plus the
// initiate/complete round trips, parts riding s3PartLanes parallel lanes.
func (s *S3Sim) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := s3PutLatency(len(data))
	if len(data) > s3PartSize {
		parts := (len(data) + s3PartSize - 1) / s3PartSize
		s.stats.MultipartUploads++
		s.stats.Parts += uint64(parts)
		s.stats.RequestUSD += float64(parts+2) * s3PutUSD
	} else {
		s.stats.RequestUSD += s3PutUSD
	}
	if old, ok := s.data[key]; ok {
		s.stats.BytesStored -= int64(len(old))
	}
	s.data[key] = append([]byte(nil), data...)
	s.opSeq++
	// The consistency lag applies to keys LIST has not yet shown; an
	// overwrite of an already-listed key never un-lists it (as on S3).
	if vis, ok := s.visible[key]; !ok || vis > s.opSeq {
		s.visible[key] = s.opSeq + s3ListLag
	}
	s.stats.Puts++
	s.stats.BytesStored += int64(len(data))
	s.stats.PutLatency += lat
	return nil
}

// Get returns a copy of the blob at key. Reads are strongly consistent:
// a PUT key is immediately readable even while LIST still omits it.
func (s *S3Sim) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.stats.RequestUSD += s3GetUSD
	return append([]byte(nil), d...), nil
}

// List returns the keys with the given prefix that have become
// list-visible, sorted. Keys PUT within the consistency window are
// silently absent — callers that need the full picture (Reload) must
// Settle first, exactly as a real S3 consumer must wait out the lag.
func (s *S3Sim) List(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) && s.visible[k] <= s.opSeq {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s.stats.RequestUSD += s3ListUSD
	return keys, nil
}

// Delete removes key; deleting a missing key is idempotent (and free, as
// on S3).
func (s *S3Sim) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.data[key]; ok {
		s.stats.BytesStored -= int64(len(old))
	}
	delete(s.data, key)
	delete(s.visible, key)
	s.opSeq++
	return nil
}

// Settle makes every stored key list-visible, modeling the consistency
// window having elapsed with no new writes.
func (s *S3Sim) Settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.visible {
		s.visible[k] = 0
	}
}

// PendingListKeys counts keys stored but not yet list-visible — the
// eventual-consistency backlog a Reload started now would miss.
func (s *S3Sim) PendingListKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, vis := range s.visible {
		if vis > s.opSeq {
			n++
		}
	}
	return n
}

// Size returns the current at-rest footprint in bytes.
func (s *S3Sim) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.BytesStored
}

// TierStats returns a snapshot of the cost/latency ledger.
func (s *S3Sim) TierStats() TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// MonthlyStorageUSD prices the current at-rest footprint for one month.
func (s *S3Sim) MonthlyStorageUSD() float64 {
	return float64(s.Size()) / float64(1<<30) * s3StorageUSDPerGBMonth
}
