package main

import (
	"fmt"
	"time"
)

// The scrape half of the per-layer metrics: what the servers' own
// /metrics and /proc say about the timed phase, read as the difference
// between a scrape just before it and one just after. Nothing here runs
// inside the server; the layers are seen through the telemetry they
// already export.

// observation is one server's state at an instant.
type observation struct {
	prom  promSnapshot
	usage procUsage
}

func observe(c *conn, s *server) (observation, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return observation{}, fmt.Errorf("scrape %s: %w", s.url, err)
	}
	snap, err := parseProm(string(body))
	if err != nil {
		return observation{}, err
	}
	u, err := readUsage(s.pid)
	if err != nil {
		return observation{}, err
	}
	return observation{prom: snap, usage: u}, nil
}

// observeAll scrapes every server over its own fresh connection (the
// measured connections stay untouched).
func observeAll(servers []*server) ([]observation, error) {
	out := make([]observation, len(servers))
	for i, s := range servers {
		c := newConn(s.url)
		o, err := observe(c, s)
		c.close()
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// routes are the endpoints whose handler time is reported, by metric
// suffix.
var routes = []struct{ name, endpoint string }{
	{"ingest", "/ingest"}, {"stream", "/stream"},
	{"hotspots", "/hotspots"}, {"diff", "/diff"}, {"flame", "/flame"},
	{"analyze", "/analyze"}, {"topk", "/topk"}, {"search", "/search"},
	{"regressions", "/regressions"},
	{"cluster_partials", "/cluster/partials"}, {"cluster_ingest", "/cluster/ingest"},
}

// phaseView is what scrapeMetrics needs to know about the client side of
// the phase.
type phaseView struct {
	elapsed               time.Duration
	profiles, queries     int64
	ingestMean, queryMean time.Duration // client-side; 0 when the phase had no such traffic
	ingestRoute           string        // "/ingest" or "/stream"
}

// scrapeMetrics turns the before/after observations of all measured
// servers into the scraped per-layer metrics. A family the servers do not
// export, or a histogram that saw nothing in the phase, is n/a.
func scrapeMetrics(before, after []observation, pv phaseView) metricSet {
	ds := make([]promDelta, len(after))
	var userS, sysS, rss float64
	for i := range after {
		ds[i] = promDelta{before: before[i].prom, after: after[i].prom}
		userS += after[i].usage.userS - before[i].usage.userS
		sysS += after[i].usage.sysS - before[i].usage.sysS
		rss += after[i].usage.peakRSSMB
	}
	ops := float64(pv.profiles + pv.queries)
	var m metricSet

	// dcserver: handler time per route, and what the client saw beyond it.
	var querySum, queryCount float64
	for _, r := range routes {
		sum, n, ok := sumHist(ds, "dcserver_request_seconds", "endpoint", r.endpoint)
		m.addOK("dcserver.handler_ms."+r.name, sum/n*1e3, "ms", int(n), ok && n > 0)
		switch r.name {
		case "ingest", "stream", "cluster_partials", "cluster_ingest":
		default:
			if ok {
				querySum += sum
				queryCount += n
			}
		}
	}
	ingSum, ingN, ingOK := sumHist(ds, "dcserver_request_seconds", "endpoint", pv.ingestRoute)
	m.addOK("dcserver.residual_ms.ingest", ms(pv.ingestMean)-ingSum/ingN*1e3, "ms", int(ingN),
		ingOK && ingN > 0 && pv.ingestMean > 0)
	m.addOK("dcserver.residual_ms.query", ms(pv.queryMean)-querySum/queryCount*1e3, "ms", int(queryCount),
		queryCount > 0 && pv.queryMean > 0)

	var reqBytes, respBytes float64
	bytesOK := true
	for _, r := range routes[:len(routes)-2] { // the last two are node-to-node, not client traffic
		rq, ok1 := sumCounter(ds, "dcserver_request_bytes_total", "endpoint", r.endpoint)
		rs, ok2 := sumCounter(ds, "dcserver_response_bytes_total", "endpoint", r.endpoint)
		bytesOK = bytesOK && ok1 && ok2
		reqBytes += rq
		respBytes += rs
	}
	m.addOK("dcserver.req_bytes_per_op", reqBytes/ops, "B", 0, bytesOK && ops > 0)
	m.addOK("dcserver.resp_bytes_per_op", respBytes/ops, "B", 0, bytesOK && ops > 0)
	m.add("dcserver.cpu_user_s", userS, "s")
	m.add("dcserver.cpu_sys_s", sysS, "s")
	m.add("dcserver.rss_peak_mb", rss, "MB")
	for _, class := range []string{"4xx", "5xx"} {
		var total float64
		found := false
		for _, r := range routes {
			if v, ok := sumCounter(ds, "dcserver_requests_total", "endpoint", r.endpoint, "code", class); ok {
				total += v
				found = true
			}
		}
		m.addOK("dcserver.status_"+class, total, "count", 0, found)
	}

	// dcserver: the delta-stream session layer.
	batches, okB := sumCounter(ds, "dcserver_stream_batches_total")
	frames, okF := sumCounter(ds, "dcserver_stream_batch_frames_total")
	m.addOK("dcserver.stream_frames_per_batch", frames/batches, "count", int(batches), okB && okF && batches > 0)
	dBytes, okD := sumCounter(ds, "dcserver_ingest_delta_bytes_total")
	dFrames, okDF := sumCounter(ds, "dcserver_ingest_delta_frames_total")
	m.addOK("dcserver.stream_delta_bytes_per_frame", dBytes/dFrames, "B", int(dFrames), okD && okDF && dFrames > 0)
	for _, c := range []struct{ name, family string }{
		{"dcserver.stream_nacks", "dcserver_stream_nacks_total"},
		{"dcserver.stream_session_drops", "dcserver_stream_sessions_dropped_total"},
		{"dcserver.stream_full_fallbacks", "dcserver_ingest_full_fallbacks_total"},
	} {
		v, ok := sumCounter(ds, c.family)
		m.addOK(c.name, v, "count", 0, ok && batches > 0)
	}

	// persist: the write-ahead log and snapshots.
	walBytes, ok1 := sumCounter(ds, "profstore_wal_appended_bytes_total")
	walAppends, ok2 := sumCounter(ds, "profstore_wal_appends_total")
	m.addOK("persist.wal_bytes_per_profile", walBytes/walAppends, "B", int(walAppends), ok1 && ok2 && walAppends > 0)
	fsyncs, ok := sumCounter(ds, "profstore_wal_fsyncs_total")
	m.addOK("persist.wal_fsyncs", fsyncs, "count", 0, ok)
	addHistMean(&m, ds, "persist.wal_append_ms_mean", "profstore_wal_append_seconds")
	addHistMean(&m, ds, "persist.wal_fsync_ms_mean", "profstore_wal_fsync_seconds")
	addHistMean(&m, ds, "persist.snapshot_ms_mean", "profstore_snapshot_seconds")
	addGaugeSum(&m, ds, "persist.snapshot_bytes", "profstore_last_snapshot_bytes", "B")

	// profstore: ingest, locks, window close, compaction, cache, index.
	addHistMean(&m, ds, "profstore.ingest_ms_mean", "profstore_ingest_seconds")
	addHistMean(&m, ds, "profstore.lock_wait_ms_mean", "profstore_shard_lock_wait_seconds")
	lockS, _, okL := sumHist(ds, "profstore_shard_lock_wait_seconds")
	m.addOK("profstore.lock_wait_frac", lockS/pv.elapsed.Seconds(), "ratio", 0, okL && pv.elapsed > 0)
	addHistMean(&m, ds, "profstore.window_close_ms_mean", "profstore_window_close_seconds")
	closed, ok := sumCounter(ds, "profstore_windows_closed_total")
	m.addOK("profstore.windows_closed", closed, "count", 0, ok)
	comp, ok := sumCounter(ds, "profstore_compactions_total")
	m.addOK("profstore.compactions", comp, "count", 0, ok)
	addHistMean(&m, ds, "profstore.compaction_ms_mean", "profstore_compaction_seconds")
	hits, okH := sumCounter(ds, "profstore_cache_hits_total")
	misses, okM := sumCounter(ds, "profstore_cache_misses_total")
	m.addOK("profstore.cache_hit_ratio", hits/(hits+misses), "ratio", int(hits+misses), okH && okM && hits+misses > 0)
	inval, ok := sumCounter(ds, "profstore_cache_invalidations_total")
	m.addOK("profstore.cache_invalidations", inval, "count", 0, ok)
	evict, ok := sumCounter(ds, "profstore_cache_evictions_total")
	m.addOK("profstore.cache_evictions", evict, "count", 0, ok)
	addGaugeSum(&m, ds, "profstore.index_postings", "profstore_index_postings", "count")
	addGaugeSum(&m, ds, "profstore.tree_nodes", "profstore_tree_nodes", "count")
	bp, okBP := sumCounter(ds, "profstore_ingest_batch_profiles_total")
	bn, okBN := sumCounter(ds, "profstore_ingest_batches_total")
	m.addOK("profstore.profiles_per_batch", bp/bn, "count", int(bn), okBP && okBN && bn > 0)

	// cluster: the hop between nodes, summed over every node.
	peerReqs, okP := sumFamily(ds, "dcserver_cluster_peer_requests_total")
	m.addOK("cluster.peer_requests_per_op", peerReqs/ops, "count", int(peerReqs), okP && ops > 0)
	peerS, okPS := sumFamily(ds, "dcserver_cluster_peer_seconds_sum")
	peerN, okPN := sumFamily(ds, "dcserver_cluster_peer_seconds_count")
	m.addOK("cluster.peer_ms_mean", peerS/peerN*1e3, "ms", int(peerN), okPS && okPN && peerN > 0)
	retries, ok := sumFamily(ds, "dcserver_cluster_peer_retries_total")
	m.addOK("cluster.peer_retries", retries, "count", 0, ok)
	fwd, okFwd := sumCounter(ds, "dcserver_cluster_forwarded_profiles_total")
	m.addOK("cluster.forwarded_profiles", fwd, "count", 0, okFwd)
	deg, ok := sumCounter(ds, "dcserver_cluster_degraded_queries_total")
	m.addOK("cluster.degraded_queries", deg, "count", 0, ok)
	partBytes, okPB := sumCounter(ds, "dcserver_response_bytes_total", "endpoint", "/cluster/partials")
	m.addOK("cluster.peer_bytes_per_query", partBytes/float64(pv.queries), "B", int(pv.queries), okPB && okP && pv.queries > 0)
	fwdBytes, okFB := sumCounter(ds, "dcserver_request_bytes_total", "endpoint", "/cluster/ingest")
	m.addOK("cluster.peer_bytes_per_profile", fwdBytes/fwd, "B", int(fwd), okFB && okFwd && fwd > 0)
	return m
}

func addHistMean(m *metricSet, ds []promDelta, name, family string) {
	sum, n, ok := sumHist(ds, family)
	m.addOK(name, sum/n*1e3, "ms", int(n), ok && n > 0)
}

// addGaugeSum reports a gauge's end-of-phase value summed over servers.
func addGaugeSum(m *metricSet, ds []promDelta, name, family, unit string) {
	var total float64
	found := len(ds) > 0
	for _, d := range ds {
		v, ok := d.gauge(family)
		found = found && ok
		total += v
	}
	m.addOK(name, total, unit, 0, found)
}
