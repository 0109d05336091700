// Command dcserver is the continuous-profiling service: an HTTP frontend
// over the internal/profstore rolling aggregator. Clients POST saved
// profile databases (.dcp: single profiles or bundles, profdb v5 as written
// by every current producer, v4 and gob v2 still accepted) to /ingest; the
// server merges them into time-bucketed windows keyed by
// workload/vendor/framework and serves hotspot, diff, flame-graph and
// analyzer queries over any window range.
//
// With -data-dir the store is durable: ingested profiles are appended to a
// write-ahead log before they are acknowledged, periodic (and
// shutdown-time) snapshots compact the log, and a restart with the same
// directory recovers every retained window byte-equal — see
// docs/OPERATIONS.md for the on-disk layout and recovery semantics.
//
// Endpoints:
//
//	POST /ingest                         .dcp body (single or bundle)
//	POST /stream?session=<id>            profdb v3 delta-ingest session
//	                                     (gob StreamBatch body)
//	GET  /hotspots?metric=&top=&from=&to=&workload=&vendor=&framework=
//	GET  /diff?before=&after=&metric=&top=     window-vs-window signed diff
//	GET  /flame?format=html|folded&from=&to=   (or before=/after= for signed)
//	GET  /analyze?from=&to=                    automated analyzer, JSON
//	GET  /regressions?dir=up|down|both&since=  confirmed trend change points
//	GET  /topk?metric=&k=                      fleet-wide frame ranking
//	GET  /search?frame=&metric=&limit=         series containing a frame
//	GET  /windows                              retained buckets
//	GET  /stats                                occupancy, limits, persistence
//	GET  /healthz
//	GET  /metrics                              Prometheus text exposition
//	GET  /debug/events?kind=&since=&limit=     internal lifecycle journal
//	GET  /cluster/status                       routing table + peer health (cluster mode)
//	POST /cluster/{partials,ingest,export,import,table,drop,join}
//	                                           node-to-node data movement (cluster mode;
//	                                           trusted surface — see docs/OPERATIONS.md §11)
//
// Every request, store mutation and persistence step is observed in an
// in-process telemetry registry served on /metrics (request latency by
// endpoint, ingest/WAL/fsync/compaction/snapshot timings, cache and
// store occupancy); structured lifecycle events (window closes,
// compactions, snapshots, recoveries, slow requests) land in a bounded
// in-memory journal served on /debug/events. Telemetry is always on and
// costs no allocations on the ingest path. -pprof-addr serves net/http/pprof on a second listener, kept off the
// public API surface. See docs/OPERATIONS.md for the metric inventory
// and alerting runbook.
//
// The store tracks every series' per-frame metric shares across closed
// windows and flags sustained drifts (-trend-metric, -trend-band,
// -trend-k). /regressions serves the confirmed change points with
// severity grades and signed-flame drill-down links; -webhook-url POSTs
// newly confirmed findings to an external receiver — see
// docs/OPERATIONS.md for the runbook.
//
// Examples:
//
//	dcserver -addr :7070 -window 1m -retention 60 -data-dir /var/lib/dcserver
//	deepcontext -workload UNet -o unet.dcp && curl --data-binary @unet.dcp http://localhost:7070/ingest
//	curl 'http://localhost:7070/hotspots?metric=gpu_time_ns&top=10'
//
// Load generation and performance measurement live in cmd/dcbench, which
// drives this binary as separate processes (see docs/PERFORMANCE.md).
//
// Long-lived profiling agents should prefer POST /stream: after one full
// upload per series, each round ships only the changed subtrees (profdb
// v3 delta frames), cutting steady-state ingest bytes by an order of
// magnitude. The server materializes each frame and lands the batch as
// the /ingest body it amounts to, through the same apply, so the WAL
// records the same bytes either way. A desynced session (server restart,
// lost batch, checksum mismatch) is NACKed and the client falls back to
// full uploads, so /stream never loses data relative to /ingest.
//
// Fleet-wide queries (/topk ranks frames across every matching series,
// /search finds the series containing a frame) are served from per-series
// aggregates computed when windows close.
//
// The store is lock-striped (-store-shards; the default adopts the data
// dir's committed count, GOMAXPROCS for fresh dirs) so ingest of disjoint
// series never contends, and repeated queries are served from a
// generation-stamped cache (512 entries) that is invalidated per (shard,
// window) on ingest, compaction and retention — /stats reports shard
// count and cache hit/miss/invalidation counters.
// Restarting with an explicit -store-shards migrates the directory in
// place during recovery, staged and crash-safe; a pre-shard data directory
// (root-level wal/ or CURRENT, no STORE.json) is refused untouched.
//
// Cluster mode (-node-id with -peers, or a committed CLUSTER.json in the
// data dir) partitions series across N dcserver nodes by consistent
// hash: /ingest and /stream forward remote-owned profiles to their
// owning node's /cluster/ingest as an /ingest body (one profdb bundle), and
// the query endpoints scatter-gather and fold partial results in
// canonical order — a healthy cluster answers byte-identical to a single
// node holding the union of the data; a down peer degrades responses to
// the survivors' share with a coverage annotation.
// Membership changes go through POST /cluster/join (staged export →
// import → commit → drop; idempotent). See docs/OPERATIONS.md §11 for
// the runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/cluster"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
)

const defaultMetric = cct.MetricGPUTime

// queryCacheEntries bounds the store's query cache.
const queryCacheEntries = 512

func main() {
	var (
		addr            = flag.String("addr", ":7070", "listen address")
		window          = flag.Duration("window", time.Minute, "fine aggregation window width")
		retention       = flag.Int("retention", 60, "fine windows kept before compaction")
		coarseFactor    = flag.Int("coarse-factor", 10, "coarse window width in fine windows")
		coarseRetention = flag.Int("coarse-retention", 144, "coarse windows kept")
		compactEvery    = flag.Duration("compact-every", 0, "background compaction interval (0 = one window)")
		maxBody         = flag.Int64("max-body", profdb.DefaultMaxBytes, "max /ingest body bytes")
		storeShards     = flag.Int("store-shards", 0, "store lock-stripe count (0 = the data dir's committed count, else GOMAXPROCS; an explicit count migrates the dir)")

		dataDir      = flag.String("data-dir", "", "durable store directory (empty = in-memory only)")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "periodic snapshot interval with -data-dir (0 = shutdown snapshot only)")

		trendMetric     = flag.String("trend-metric", "", "metric the trend detector tracks (default gpu_time_ns)")
		trendBand       = flag.Float64("trend-band", 0, "share-deviation noise band for change points (0 = default 0.05)")
		trendK          = flag.Int("trend-k", 0, "consecutive out-of-band windows that confirm a change point (0 = default 3)")
		webhookURL      = flag.String("webhook-url", "", "POST newly confirmed /regressions findings to this URL")
		webhookInterval = flag.Duration("webhook-interval", 30*time.Second, "webhook poll interval")

		nodeID = flag.String("node-id", "", "this node's cluster ID (enables cluster mode with -peers or a committed CLUSTER.json)")
		peers  = flag.String("peers", "", "cluster membership as id=addr,id=addr,... including this node; a CLUSTER.json committed in -data-dir takes precedence")

		slowRequest = flag.Duration("slow-request", defaultSlowRequest, "journal requests taking at least this long (0 disables)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	// Auto shard count adopts the directory's committed layout first: the
	// stripe count must not track a machine-dependent value (GOMAXPROCS),
	// or moving the data dir across hosts would migrate it on every boot.
	shards := *storeShards
	if shards <= 0 && *dataDir != "" {
		if n, ok := profstore.CommittedShards(*dataDir); ok {
			shards = n
		}
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg := profstore.Config{
		Window:          *window,
		Retention:       *retention,
		CoarseFactor:    *coarseFactor,
		CoarseRetention: *coarseRetention,
		Shards:          shards,
		CacheSize:       queryCacheEntries,
		Dir:             *dataDir,
		Trend: trend.Config{
			Metric: *trendMetric,
			Band:   *trendBand,
			K:      *trendK,
		},
	}

	store := profstore.New(cfg)
	if *dataDir != "" {
		rs, err := store.Recover()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserver: recover:", err)
			os.Exit(1)
		}
		for _, w := range rs.Warnings {
			fmt.Fprintln(os.Stderr, "dcserver: recover:", w)
		}
		if rs.SnapshotError != "" {
			fmt.Fprintln(os.Stderr, "dcserver: recover: snapshot unusable, replaying full WAL:", rs.SnapshotError)
		}
		if rs.Migrated {
			fmt.Printf("dcserver: recover: migrated %s to the %d-shard layout\n", *dataDir, shards)
		}
		fmt.Printf("dcserver: recovered from %s: snapshot=%v windows=%d wal_records=%d (skipped %d records, %d segments)\n",
			*dataDir, rs.SnapshotLoaded, rs.WindowsRestored, rs.WALRecords, rs.WALSkippedRecords, rs.WALSkippedSegments)
		store.StartSnapshotter(*snapInterval)
	}
	store.StartCompactor(*compactEvery)
	defer store.Close()
	if *webhookURL != "" {
		n := startNotifier(store, *webhookURL, *webhookInterval)
		defer n.Close()
		fmt.Printf("dcserver: webhook notifier posting new regressions to %s every %v\n", *webhookURL, *webhookInterval)
	}

	// Cluster mode: a committed CLUSTER.json in the data dir is the
	// authoritative membership (it is each node's join commit point);
	// -peers only bootstraps a node that has never committed a table.
	var coord *cluster.Coordinator
	if *nodeID != "" || *peers != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "dcserver: -peers requires -node-id")
			os.Exit(1)
		}
		var tbl *cluster.Table
		var tblPath string
		if *dataDir != "" {
			tblPath = filepath.Join(*dataDir, cluster.TableFile)
			t, err := cluster.LoadTable(tblPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dcserver: cluster:", err)
				os.Exit(1)
			}
			tbl = t
		}
		if tbl == nil {
			if *peers == "" {
				fmt.Fprintln(os.Stderr, "dcserver: -node-id needs -peers (or a committed CLUSTER.json in -data-dir)")
				os.Exit(1)
			}
			t, err := cluster.ParsePeers(*peers)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dcserver: cluster:", err)
				os.Exit(1)
			}
			tbl = t
		}
		var err error
		coord, err = cluster.New(cluster.Config{
			Self: *nodeID, Store: store, Table: tbl, Path: tblPath, Telemetry: store.Telemetry(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserver: cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("dcserver: cluster node %s (table generation %d, %d nodes)\n",
			*nodeID, tbl.Generation, len(tbl.Nodes))
	}

	// Listen before serving so ":0" (ephemeral port) reports the actual
	// bound address — scripts scrape it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcserver:", err)
		os.Exit(1)
	}
	app, handler := newServerHandler(store, coord, *maxBody, *slowRequest)
	srv := newHTTPServer(*addr, handler)
	fmt.Printf("dcserver: listening on %s (window %v, retention %d fine + %d coarse, %d shards, cache %d)\n",
		ln.Addr(), store.Config().Window, store.Config().Retention, store.Config().CoarseRetention,
		store.Config().Shards, store.Config().CacheSize)
	store.Telemetry().Journal().Record("server_start", ln.Addr().String())
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserver: pprof:", err)
			os.Exit(1)
		}
		fmt.Printf("dcserver: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, pprofMux())
	}

	// SIGTERM/SIGINT drain in-flight requests, then a final snapshot makes
	// the shutdown lossless even if the periodic snapshotter never fired.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(shCtx)
	}()

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "dcserver:", err)
		os.Exit(1)
	}
	// Serve can return while Shutdown is still waiting on (or gave up on)
	// active handlers; drain the in-flight writes so the shutdown snapshot
	// cannot race a /stream batch or /ingest that is still applying.
	if !app.drain(10 * time.Second) {
		fmt.Fprintln(os.Stderr, "dcserver: drain: in-flight writes still running; snapshotting anyway")
	}
	store.Telemetry().Journal().Record("server_stop", ln.Addr().String())
	if *dataDir != "" {
		if info, err := store.Snapshot(); err != nil {
			fmt.Fprintln(os.Stderr, "dcserver: shutdown snapshot:", err)
		} else {
			fmt.Printf("dcserver: shutdown snapshot %s (%d files, %d bytes)\n", info.Dir, info.Files, info.Bytes)
		}
	}
	fmt.Println("dcserver: shut down")
}
