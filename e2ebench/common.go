package main

import (
	"io"
	"log"

	"paramring/internal/service"
)

// quietLog discards the service's operational log lines.
func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

// svcCounters is a snapshot of the service counters the per-layer metrics
// are taken from.
type svcCounters struct {
	specHits, specMisses      uint64
	cacheHits, cacheMisses    uint64
	retried, parseErrors      uint64
	granted, renewals         uint64
	redispatches, lateResults uint64
}

func snapshotMetrics(m *service.Metrics) svcCounters {
	return svcCounters{
		specHits: m.SpecCacheHits.Load(), specMisses: m.SpecCacheMisses.Load(),
		cacheHits: m.CacheHits.Load(), cacheMisses: m.CacheMisses.Load(),
		retried: m.JobsRetried.Load(), parseErrors: m.ParseErrors.Load(),
		granted: m.ClusterLeasesGranted.Load(), renewals: m.ClusterLeaseRenewals.Load(),
		redispatches: m.ClusterRedispatches.Load(), lateResults: m.ClusterLateResults.Load(),
	}
}

// serviceMetrics fills the service and cluster counters from the deltas
// between two snapshots taken around the measured load.
func serviceMetrics(out map[string]float64, a, b svcCounters) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	out["service.spec_cache_hit_rate"] = ratio(d(a.specHits, b.specHits), d(a.specHits, b.specHits)+d(a.specMisses, b.specMisses))
	out["service.result_cache_hit_rate"] = ratio(d(a.cacheHits, b.cacheHits), d(a.cacheHits, b.cacheHits)+d(a.cacheMisses, b.cacheMisses))
	out["service.retries"] = d(a.retried, b.retried)
	out["service.rejected"] += d(a.parseErrors, b.parseErrors)
	out["cluster.leases_granted"] = d(a.granted, b.granted)
	out["cluster.lease_renewals"] = d(a.renewals, b.renewals)
	out["cluster.redispatches"] = d(a.redispatches, b.redispatches)
	out["cluster.late_results"] = d(a.lateResults, b.lateResults)
	out["cluster.grants_per_job"] = ratio(d(a.granted, b.granted), d(a.cacheMisses, b.cacheMisses))
}
