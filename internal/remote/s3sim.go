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
	cfg S3Config

	mu      sync.Mutex
	data    map[string][]byte
	visible map[string]uint64 // key -> opSeq at which LIST starts showing it
	opSeq   uint64            // mutating operations so far (visibility clock)
	stats   TierStats
}

// S3Config prices and paces the simulated cloud tier. The defaults follow
// S3 Standard's published us-east-1 numbers and a WAN path to it.
type S3Config struct {
	// FirstByte is the per-request latency floor (connection + service
	// time) charged to every request, and to every part of a multipart
	// upload.
	FirstByte simclock.Duration
	// MBps is the sustained transfer bandwidth to/from the bucket.
	MBps float64
	// PutUSD, GetUSD, ListUSD are per-request prices. DELETE is free on
	// S3 and stays free here.
	PutUSD  float64
	GetUSD  float64
	ListUSD float64
	// StorageUSDPerGBMonth prices data at rest.
	StorageUSDPerGBMonth float64
	// PartSize splits uploads larger than itself into a multipart upload:
	// one initiate and one complete request plus one PUT per part, parts
	// transferring in PartLanes parallel lanes.
	PartSize  int
	PartLanes int
	// ListLagOps is the eventual-consistency window: a PUT key appears in
	// LIST results only after this many further mutating operations (or a
	// Settle call). 0 makes LIST strongly consistent.
	ListLagOps uint64
}

// DefaultS3Config returns the S3 Standard model used by the retention
// experiments.
func DefaultS3Config() S3Config {
	return S3Config{
		FirstByte:            18 * simclock.Millisecond,
		MBps:                 100,
		PutUSD:               0.005 / 1000,
		GetUSD:               0.0004 / 1000,
		ListUSD:              0.005 / 1000,
		StorageUSDPerGBMonth: 0.023,
		PartSize:             8 << 20,
		PartLanes:            4,
		ListLagOps:           8,
	}
}

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
func NewS3Sim(cfg S3Config) *S3Sim {
	if cfg.FirstByte <= 0 {
		cfg.FirstByte = DefaultS3Config().FirstByte
	}
	if cfg.MBps <= 0 {
		cfg.MBps = DefaultS3Config().MBps
	}
	if cfg.PartSize <= 0 {
		cfg.PartSize = DefaultS3Config().PartSize
	}
	if cfg.PartLanes <= 0 {
		cfg.PartLanes = 1
	}
	return &S3Sim{cfg: cfg, data: map[string][]byte{}, visible: map[string]uint64{}}
}

// xfer models moving n bytes at the configured bandwidth.
func (s *S3Sim) xfer(n int) simclock.Duration {
	return simclock.Duration(float64(n) / (s.cfg.MBps * 1e6) * float64(simclock.Second))
}

// putLatency models persisting an n-byte blob: first-byte plus transfer,
// with multipart round trips above the part-size threshold. It is the
// service time Put accrues and the number PutServiceTime exposes to the
// segment-ack path.
func (s *S3Sim) putLatency(n int) simclock.Duration {
	if n > s.cfg.PartSize {
		parts := (n + s.cfg.PartSize - 1) / s.cfg.PartSize
		rounds := (parts + s.cfg.PartLanes - 1) / s.cfg.PartLanes
		// initiate + complete, then each lane-round pays a first-byte;
		// the body transfer is bandwidth-bound regardless of lanes.
		return s.cfg.FirstByte*simclock.Duration(2+rounds) + s.xfer(n)
	}
	return s.cfg.FirstByte + s.xfer(n)
}

// PutServiceTime implements ServiceTimeModeler: the modeled service time
// of persisting an n-byte blob, which the server threads into segment
// acks so device-side OffloadAckTime reflects the backend. It reads only
// the immutable config, so no lock is taken — the segment-ingest hot path
// calls it once per accepted blob.
func (s *S3Sim) PutServiceTime(n int) simclock.Duration {
	return s.putLatency(n)
}

// Put stores a copy of data, charging request cost and modeled latency.
// Blobs above PartSize upload as multipart: per-part PUT requests plus the
// initiate/complete round trips, parts riding PartLanes parallel lanes.
func (s *S3Sim) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := s.putLatency(len(data))
	if len(data) > s.cfg.PartSize {
		parts := (len(data) + s.cfg.PartSize - 1) / s.cfg.PartSize
		s.stats.MultipartUploads++
		s.stats.Parts += uint64(parts)
		s.stats.RequestUSD += float64(parts+2) * s.cfg.PutUSD
	} else {
		s.stats.RequestUSD += s.cfg.PutUSD
	}
	if old, ok := s.data[key]; ok {
		s.stats.BytesStored -= int64(len(old))
	}
	s.data[key] = append([]byte(nil), data...)
	s.opSeq++
	// The consistency lag applies to keys LIST has not yet shown; an
	// overwrite of an already-listed key never un-lists it (as on S3).
	if vis, ok := s.visible[key]; !ok || vis > s.opSeq {
		s.visible[key] = s.opSeq + s.cfg.ListLagOps
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
	s.stats.RequestUSD += s.cfg.GetUSD
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
	s.stats.RequestUSD += s.cfg.ListUSD
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
	return float64(s.Size()) / float64(1<<30) * s.cfg.StorageUSDPerGBMonth
}
