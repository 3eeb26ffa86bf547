package screen

import (
	"sync/atomic"
	"time"

	"repro/internal/ethtypes"
	"repro/internal/obs"
)

// Verdict labels for the request counter.
const (
	verdictListed       = "listed"
	verdictClean        = "clean"
	verdictDomainListed = "domain-listed"
	verdictDomainClean  = "domain-clean"
)

// Engine publishes an immutable snapshot behind an atomic pointer:
// Screen and ScreenDomain never take a lock, and Swap installs a fresh
// snapshot in one atomic store while readers continue against the old
// one. All instruments are latched at construction so the hot path
// performs zero heap allocations.
type Engine struct {
	snap atomic.Pointer[Snapshot]
	// swapAtNanos is the obs.Now() of the last swap, for the age gauge.
	swapAtNanos atomic.Int64
	// freshAtNanos is the obs.Now() of the last freshness confirmation:
	// a swap, or MarkFresh from a healthy upstream step that produced no
	// dataset change. Age() measures staleness from here, so a quiet but
	// healthy upstream does not read as degraded.
	freshAtNanos atomic.Int64

	// Latched instruments; all nil-safe no-ops without a registry.
	reqListed       *obs.Counter
	reqClean        *obs.Counter
	reqDomainListed *obs.Counter
	reqDomainClean  *obs.Counter
	duration        *obs.Histogram
	batchDuration   *obs.Histogram
	swaps           *obs.Counter
	snapRecords     *obs.Gauge
	snapDomains     *obs.Gauge
	snapAge         *obs.Gauge
	stale           *obs.Gauge
}

// NewEngine returns an engine reporting through reg (nil disables
// instrumentation). It serves nothing until the first Swap.
func NewEngine(reg *obs.Registry) *Engine {
	requests := reg.CounterVec("daas_screen_requests_total", "screening lookups by verdict", "verdict")
	return &Engine{
		reqListed:       requests.With(verdictListed),
		reqClean:        requests.With(verdictClean),
		reqDomainListed: requests.With(verdictDomainListed),
		reqDomainClean:  requests.With(verdictDomainClean),
		duration:        reg.Histogram("daas_screen_duration_seconds", "single-lookup screening latency", obs.DefDurationBuckets),
		batchDuration:   reg.Histogram("daas_screen_batch_duration_seconds", "whole-batch screening latency, one observation per ScreenBatch", obs.DefDurationBuckets),
		swaps:           reg.Counter("daas_screen_snapshot_swaps_total", "snapshot swaps installed by pipeline rebuilds"),
		snapRecords:     reg.Gauge("daas_screen_snapshot_records", "listed addresses in the current snapshot"),
		snapDomains:     reg.Gauge("daas_screen_snapshot_domains", "listed domains in the current snapshot"),
		snapAge:         reg.Gauge("daas_screen_snapshot_age_seconds", "seconds since the current snapshot was installed (updated on each lookup)"),
		stale:           reg.Gauge("daas_screen_stale_seconds", "seconds since the snapshot was last confirmed fresh by its upstream (0 while healthy; grows during an outage)"),
	}
}

// Swap atomically installs a new snapshot; in-flight readers finish
// against the one they loaded.
func (e *Engine) Swap(s *Snapshot) {
	e.snap.Store(s)
	now := obs.Now().UnixNano()
	e.swapAtNanos.Store(now)
	e.freshAtNanos.Store(now)
	e.swaps.Inc()
	e.snapRecords.Set(int64(s.Len()))
	e.snapDomains.Set(int64(s.DomainCount()))
	e.snapAge.Set(0)
	e.stale.Set(0)
}

// MarkFresh records that the upstream (a radar step, a pipeline
// rebuild) confirmed the current snapshot is up to date even though no
// swap was needed. Degraded-mode staleness (Age, the
// daas_screen_stale_seconds gauge, the snapshotAge response field) is
// measured from the last MarkFresh or Swap.
func (e *Engine) MarkFresh() {
	e.freshAtNanos.Store(obs.Now().UnixNano())
	e.stale.Set(0)
}

// Age reports how long ago the snapshot was last confirmed fresh, or 0
// if nothing was ever installed. Under a healthy upstream this hovers
// near the step cadence; during an outage it grows without bound and
// the engine keeps serving the last good snapshot.
func (e *Engine) Age() time.Duration {
	at := e.freshAtNanos.Load()
	if at == 0 {
		return 0
	}
	return time.Duration(obs.Now().UnixNano() - at)
}

// Snapshot returns the currently published snapshot (nil before the
// first swap). Callers holding it see a consistent view regardless of
// concurrent swaps.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Screen answers one address lookup off the current snapshot. Zero
// heap allocations: the record's strings alias the snapshot tables.
func (e *Engine) Screen(a ethtypes.Address) (Record, bool) {
	start := obs.Now()
	rec, ok := e.snap.Load().Lookup(a)
	e.observe(start, ok, e.reqListed, e.reqClean)
	return rec, ok
}

// Verdict is one address's answer within a batch: the listing record
// when Listed, otherwise a Record carrying only the Address.
type Verdict struct {
	Record
	Listed bool
}

// ScreenBatch answers every address in addrs off one snapshot, so a
// batch that straddles a Swap never mixes two of them. The verdicts
// replace dst's contents, in input order; a dst with room for
// len(addrs) keeps the call free of heap allocations. The batch is
// booked once: one latency observation in the batch histogram and the
// listed/clean counts added in one step each.
func (e *Engine) ScreenBatch(dst []Verdict, addrs []ethtypes.Address) []Verdict {
	start := obs.Now()
	snap := e.snap.Load()
	dst = dst[:0]
	listed := 0
	for _, a := range addrs {
		rec, ok := snap.Lookup(a)
		if ok {
			listed++
		} else {
			rec.Address = a
		}
		dst = append(dst, Verdict{Record: rec, Listed: ok})
	}
	e.batchDuration.ObserveDuration(obs.Since(start))
	e.reqListed.Add(uint64(listed))
	e.reqClean.Add(uint64(len(addrs) - listed))
	e.observeAge(start)
	return dst
}

// ScreenDomain answers one domain lookup off the current snapshot.
func (e *Engine) ScreenDomain(domain string) bool {
	start := obs.Now()
	ok := e.snap.Load().LookupDomain(domain)
	e.observe(start, ok, e.reqDomainListed, e.reqDomainClean)
	return ok
}

// observe books one lookup: latency, verdict count, and the snapshot
// age gauges.
func (e *Engine) observe(start time.Time, listed bool, hit, miss *obs.Counter) {
	e.duration.ObserveDuration(obs.Since(start))
	if listed {
		hit.Inc()
	} else {
		miss.Inc()
	}
	e.observeAge(start)
}

// observeAge refreshes the snapshot age and staleness gauges as of
// start (atomic stores, so even the gauge refresh stays on the
// zero-allocation path).
func (e *Engine) observeAge(start time.Time) {
	if at := e.swapAtNanos.Load(); at != 0 {
		e.snapAge.Set((start.UnixNano() - at) / 1e9)
	}
	if at := e.freshAtNanos.Load(); at != 0 {
		e.stale.Set((start.UnixNano() - at) / 1e9)
	}
}
