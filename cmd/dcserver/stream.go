// POST /stream — the profdb v3 delta-ingest session endpoint.
//
// A session is a client-chosen id carried in ?session=; its state (the
// shared frame dictionary plus one apply cursor per series) persists on
// the server across POSTs, so a client uploads the full profile once and
// then ships only changed subtrees. Each POST body is a gob stream of
// profdb.StreamBatch records. Every frame a batch applies is captured as
// the standalone v4 database of its materialized profile, and the batch
// lands as the /ingest body those databases join into, through the same
// apply as /ingest: the WAL records, forwards and recovery semantics are
// /ingest's.
//
// Per-frame failures (stale base, corrupt delta) are NACKed in the JSON
// acknowledgement and the client resyncs that series with a full frame;
// anything that desyncs the whole session (an undecodable stream, an
// ingest error) drops the session so the client's next POST starts
// fresh. The acknowledgement also reports the server's dictionary
// length: a client whose own dictionary disagrees (a lost batch, a
// server restart) abandons the session and re-establishes every series
// with full uploads.
package main

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profstore"
	"deepcontext/internal/telemetry"
)

const (
	// maxStreamSessions caps server-side session state; the least
	// recently used session is evicted beyond it (the client notices via
	// the dictionary-length check and resyncs).
	maxStreamSessions = 256
	// maxSessionIDLen bounds the client-chosen session id.
	maxSessionIDLen = 128
)

// streamAck is the JSON response to one POST /stream: what was applied,
// which frames were rejected, and the server's dictionary length for the
// client's desync check.
type streamAck struct {
	Session string       `json:"session"`
	Batches int          `json:"batches"`
	Frames  int          `json:"frames"`
	Applied int          `json:"applied"`
	Dict    int          `json:"dict"`
	Closed  bool         `json:"closed,omitempty"`
	Nacks   []streamNack `json:"nacks,omitempty"`
}

// streamNack reports one rejected frame. Reason is "stale" (resend that
// series as a full frame) or "corrupt" (the frame was malformed; the
// series cursor is reset, so a full resync is also required).
type streamNack struct {
	Seq    uint64 `json:"seq"`
	Series string `json:"series"`
	Reason string `json:"reason"`
	Error  string `json:"error"`
}

// streamSession is the server half of one v3 session. The mutex
// serializes POSTs racing on the same id; gone marks a session that was
// dropped or evicted while a racing POST waited on it.
type streamSession struct {
	id      string
	mu      sync.Mutex
	dec     *profdb.DeltaDecoder
	cursors map[string]*profdb.SeriesCursor
	gone    atomic.Bool
	lastUse atomic.Int64 // unix nanoseconds, for LRU eviction
}

// streamMetrics is the delta-ingest telemetry handle set, resolved once
// at wiring time.
type streamMetrics struct {
	deltaBytes    *telemetry.Counter
	fullBytes     *telemetry.Counter
	deltaFrames   *telemetry.Counter
	fullFrames    *telemetry.Counter
	fullFallbacks *telemetry.Counter
	batches       *telemetry.Counter
	batchFrames   *telemetry.Counter
	nacks         *telemetry.Counter
	opened        *telemetry.Counter
	closed        *telemetry.Counter
	dropped       *telemetry.Counter
	evicted       *telemetry.Counter
}

func newStreamMetrics(reg *telemetry.Registry) *streamMetrics {
	return &streamMetrics{
		deltaBytes:    reg.Counter("dcserver_ingest_delta_bytes_total", "Wire bytes received as delta frames on /stream (batch framing included)."),
		fullBytes:     reg.Counter("dcserver_ingest_full_bytes_total", "Wire bytes received as embedded full payloads on /stream (initial uploads and resyncs)."),
		deltaFrames:   reg.Counter("dcserver_ingest_delta_frames_total", "Delta frames applied on /stream."),
		fullFrames:    reg.Counter("dcserver_ingest_full_frames_total", "Full frames applied on /stream (initial uploads and resyncs)."),
		fullFallbacks: reg.Counter("dcserver_ingest_full_fallbacks_total", "Full frames applied to a series the session had already seen — resyncs after a NACK, an unencodable change, or a restart."),
		batches:       reg.Counter("dcserver_stream_batches_total", "Stream batches received (each landed as one /ingest body)."),
		batchFrames:   reg.Counter("dcserver_stream_batch_frames_total", "Frames received across all stream batches (divide by batches for the mean batch size)."),
		nacks:         reg.Counter("dcserver_stream_nacks_total", "Frames rejected with a NACK (stale base or corrupt delta)."),
		opened:        reg.Counter("dcserver_stream_sessions_opened_total", "Stream sessions opened."),
		closed:        reg.Counter("dcserver_stream_sessions_closed_total", "Stream sessions closed gracefully by a Close batch."),
		dropped:       reg.Counter("dcserver_stream_sessions_dropped_total", "Stream sessions dropped on error to force a client resync."),
		evicted:       reg.Counter("dcserver_stream_sessions_evicted_total", "Stream sessions evicted by the LRU cap."),
	}
}

// streamRegistry owns the live sessions. Lock order: registry mutex and
// session mutexes are never held together — acquire releases the
// registry before locking the session, and drop/evict flip the session's
// atomic gone flag instead of taking its lock.
type streamRegistry struct {
	mu       sync.Mutex
	sessions map[string]*streamSession
	met      *streamMetrics
	journal  *telemetry.Journal
}

func newStreamRegistry(reg *telemetry.Registry) *streamRegistry {
	g := &streamRegistry{
		sessions: make(map[string]*streamSession),
		met:      newStreamMetrics(reg),
		journal:  reg.Journal(),
	}
	reg.GaugeFunc("dcserver_stream_sessions", "Stream sessions currently held.",
		func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.sessions))
		})
	return g
}

// acquire returns the session for id with its mutex held, creating it
// (and evicting the LRU session past the cap) as needed. The loop
// re-resolves when the session it waited on was dropped meanwhile.
func (g *streamRegistry) acquire(id string, maxBody int64) *streamSession {
	for {
		g.mu.Lock()
		sess := g.sessions[id]
		if sess == nil {
			if len(g.sessions) >= maxStreamSessions {
				g.evictLocked()
			}
			sess = &streamSession{
				id:      id,
				dec:     profdb.NewDeltaDecoder(),
				cursors: make(map[string]*profdb.SeriesCursor),
			}
			sess.dec.MaxBytes = maxBody
			g.sessions[id] = sess
			g.met.opened.Inc()
			g.journal.Record("stream_open", id)
		}
		sess.lastUse.Store(time.Now().UnixNano())
		g.mu.Unlock()
		sess.mu.Lock()
		if !sess.gone.Load() {
			return sess
		}
		sess.mu.Unlock()
	}
}

// evictLocked removes the least recently used session. Called with the
// registry mutex held.
func (g *streamRegistry) evictLocked() {
	var victim *streamSession
	for _, s := range g.sessions {
		if victim == nil || s.lastUse.Load() < victim.lastUse.Load() {
			victim = s
		}
	}
	if victim == nil {
		return
	}
	victim.gone.Store(true)
	delete(g.sessions, victim.id)
	g.met.evicted.Inc()
	g.journal.Record("stream_evict", victim.id)
}

// remove deletes sess from the registry. Safe to call with sess.mu held
// (see the lock-order note on streamRegistry).
func (g *streamRegistry) remove(sess *streamSession) {
	sess.gone.Store(true)
	g.mu.Lock()
	if g.sessions[sess.id] == sess {
		delete(g.sessions, sess.id)
	}
	g.mu.Unlock()
}

// drop removes a desynced session so the client's next POST starts
// fresh with full uploads.
func (g *streamRegistry) drop(sess *streamSession, reason string) {
	g.remove(sess)
	g.met.dropped.Inc()
	g.journal.Record("stream_drop", sess.id, "reason", reason)
}

// close removes a gracefully closed session.
func (g *streamRegistry) close(sess *streamSession) {
	g.remove(sess)
	g.met.closed.Inc()
	g.journal.Record("stream_close", sess.id)
}

// countingReader counts bytes consumed from the request body so wire
// bytes can be attributed to delta versus full traffic.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// POST /stream?session=<id> — body is a gob stream of profdb.StreamBatch;
// response is one streamAck covering every batch in the body.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !s.beginWrite() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.endWrite()
	id := r.URL.Query().Get("session")
	if id == "" || len(id) > maxSessionIDLen {
		writeError(w, http.StatusBadRequest, fmt.Errorf("stream needs ?session=<id> (at most %d bytes)", maxSessionIDLen))
		return
	}
	met := s.streams.met
	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.maxBody)}
	gdec := gob.NewDecoder(cr)

	// Wire accounting happens whatever way the request ends: everything
	// that is not an embedded full payload is delta/framing traffic.
	var fullPayload int64
	defer func() {
		if d := cr.n - fullPayload; d > 0 {
			met.deltaBytes.Add(d)
		}
		met.fullBytes.Add(fullPayload)
	}()

	sess := s.streams.acquire(id, s.maxBody)
	defer sess.mu.Unlock()

	ack := streamAck{Session: id}
	for {
		b, err := profdb.ReadBatch(gdec)
		if err == io.EOF {
			break
		}
		if err != nil {
			// An undecodable stream poisons the whole session: the
			// dictionary may have desynced, so force a fresh start.
			s.streams.drop(sess, "corrupt_stream")
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, err)
			} else {
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
		ack.Batches++
		ack.Frames += len(b.Frames)
		met.batches.Inc()
		met.batchFrames.Add(int64(len(b.Frames)))

		// Each applied frame is encoded the moment it materializes: the
		// session base mutates in place when the next delta applies.
		var dbs [][]byte
		for i := range b.Frames {
			f := &b.Frames[i]
			if !f.Delta {
				fullPayload += int64(len(f.Full))
			}
			// Dictionary additions are applied for every received frame,
			// accepted or not — the sender's dictionary grew when it
			// encoded the frame, and the two must stay in lockstep.
			if err := sess.dec.AddFrames(f); err != nil {
				s.streams.drop(sess, "corrupt_dictionary")
				writeError(w, http.StatusBadRequest, err)
				return
			}
			key := profstore.LabelsOf(f.Meta).Key()
			cur, seen := sess.cursors[key]
			if !seen {
				cur = &profdb.SeriesCursor{}
				sess.cursors[key] = cur
			}
			p, err := sess.dec.Apply(cur, f)
			if err != nil {
				reason := "corrupt"
				if errors.Is(err, profdb.ErrStaleBase) {
					reason = "stale"
				}
				ack.Nacks = append(ack.Nacks, streamNack{Seq: f.Seq, Series: key, Reason: reason, Error: err.Error()})
				met.nacks.Inc()
				s.streams.journal.Record("stream_resync", id, "series", key, "reason", reason)
				continue
			}
			if f.Delta {
				met.deltaFrames.Inc()
			} else {
				met.fullFrames.Inc()
				if seen {
					met.fullFallbacks.Inc()
					s.streams.journal.Record("stream_resync", id, "series", key, "reason", "full_resync")
				}
			}
			db, err := profdb.EncodeBundle([]profdb.Entry{{Profile: p}})
			if err != nil {
				s.streams.drop(sess, "encode_error")
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			dbs = append(dbs, db)
			ack.Applied++
		}
		if len(dbs) > 0 {
			if code, err := s.applyBatch(r.Context(), dbs); err != nil {
				// The client cannot tell how much of the batch landed;
				// dropping the session forces a clean full resync.
				reason := "ingest_error"
				if code == http.StatusBadGateway {
					reason = "forward_error"
				}
				s.streams.drop(sess, reason)
				writeError(w, code, err)
				return
			}
		}
		if b.Close {
			s.streams.close(sess)
			ack.Closed = true
			break
		}
	}
	ack.Dict = sess.dec.DictLen()
	writeJSON(w, ack)
}

// applyBatch lands one batch's materialized profiles, each a standalone v4
// database, as the /ingest body they join into: planned from those bytes
// and applied like any other body, routed in cluster mode. On failure it
// returns the status to answer with (see apply).
func (s *server) applyBatch(ctx context.Context, dbs [][]byte) (int, error) {
	body, err := profdb.JoinBundles(dbs)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	planned, err := profdb.PlanBundle(body)
	if err != nil {
		return http.StatusInternalServerError, err
	}
	defer planned.Release()
	_, code, err := s.apply(ctx, planned, s.cluster != nil)
	return code, err
}
