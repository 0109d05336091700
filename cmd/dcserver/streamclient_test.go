package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

// streamClient drives a profdb v3 delta session against POST /stream. It
// mirrors the server's receive state with a shadow decoder: after each
// acknowledged frame the client applies it locally, so the next delta is
// encoded against exactly the profile the server materialized (the full
// frame's embedded payload round-trips through the decoder too, which is
// why acknowledged bases never alias the caller's profiles).
//
// Recovery is two-tier. A NACKed frame resets only that series' cursor:
// the next send carries a full frame for it. Anything that can desync
// the shared dictionary — a transport error, a non-200 response, or an
// acknowledgement whose dictionary length disagrees with the encoder's —
// abandons the session wholesale: fresh session id, fresh dictionary,
// bumped epoch, every series re-established by full upload.
//
// One client per goroutine; not safe for concurrent use.
type streamClient struct {
	baseURL  string
	httpc    *http.Client
	idPrefix string
	idSerial int
	id       string

	enc      *profdb.DeltaEncoder
	shadow   *profdb.DeltaDecoder
	cursors  map[string]*profdb.SeriesCursor
	epoch    uint64
	batchSeq uint64

	// What the recovery tests assert on.
	deltaFrames int64
	resyncs     int64 // whole-session resets
}

// newStreamClient opens a session against baseURL. idPrefix must be
// unique per client (it namespaces the deterministic session ids).
func newStreamClient(httpc *http.Client, baseURL, idPrefix string) *streamClient {
	c := &streamClient{baseURL: baseURL, httpc: httpc, idPrefix: idPrefix}
	c.reset()
	c.resyncs = 0 // the initial session is not a resync
	return c
}

// reset abandons the current session: every series re-establishes with a
// full frame under a new epoch, through a new session id and dictionary.
func (c *streamClient) reset() {
	c.idSerial++
	c.id = fmt.Sprintf("%s-%d", c.idPrefix, c.idSerial)
	c.enc = profdb.NewDeltaEncoder()
	c.shadow = profdb.NewDeltaDecoder()
	// The shadow only replays frames this client encoded; re-verifying
	// their checksums would double the client's per-upload walk cost.
	c.shadow.TrustChecksums = true
	c.cursors = make(map[string]*profdb.SeriesCursor)
	c.epoch++
	c.batchSeq = 0
	c.resyncs++
}

// sendResult reports one send round: which series were rejected (their
// current profiles were not ingested and should be resent) and whether
// the whole session reset (after a reset the server may or may not have
// applied the batch — callers needing exactly-once must arrange the
// failure injection so undelivered batches were not applied).
type sendResult struct {
	Acked  int
	Nacked map[string]bool
	Reset  bool
}

// send uploads one batch carrying the current state of each profile:
// deltas for established series, full frames otherwise. Profiles may be
// mutated freely by the caller between sends.
func (c *streamClient) send(ps []*profiler.Profile) (sendResult, error) {
	return c.post(ps, false)
}

// closeSession sends an empty Close batch and forgets the session.
func (c *streamClient) closeSession() error {
	_, err := c.post(nil, true)
	// The session is gone server-side either way; start fresh next time.
	c.reset()
	c.resyncs--
	return err
}

func (c *streamClient) post(ps []*profiler.Profile, closeBatch bool) (sendResult, error) {
	c.batchSeq++
	b := profdb.StreamBatch{Seq: c.batchSeq, Close: closeBatch}
	keys := make([]string, 0, len(ps))
	for _, p := range ps {
		key := profstore.LabelsOf(p.Meta).Key()
		keys = append(keys, key)
		cur := c.cursors[key]
		if cur == nil {
			cur = &profdb.SeriesCursor{}
			c.cursors[key] = cur
		}
		var fr profdb.StreamFrame
		encoded := false
		if cur.Base != nil {
			df, ok, err := c.enc.EncodeDeltaFrom(cur.Base, cur.Sum, p, c.epoch, cur.Seq+1)
			if err != nil {
				return sendResult{}, err
			}
			if ok {
				fr, encoded = df, true
				c.deltaFrames++
			}
		}
		if !encoded {
			ff, err := c.enc.EncodeFull(p, c.epoch, cur.Seq+1)
			if err != nil {
				return sendResult{}, err
			}
			fr = ff
		}
		b.Frames = append(b.Frames, fr)
	}

	var buf bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&buf), &b); err != nil {
		return sendResult{}, err
	}
	resp, err := c.httpc.Post(c.baseURL+"/stream?session="+c.id, "application/octet-stream", &buf)
	if err != nil {
		c.reset()
		return sendResult{Reset: true}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		c.reset()
		return sendResult{Reset: true}, fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, eb.Error)
	}
	var ack streamAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		c.reset()
		return sendResult{Reset: true}, fmt.Errorf("stream: decode ack: %w", err)
	}
	io.Copy(io.Discard, resp.Body)

	res := sendResult{Nacked: make(map[string]bool)}
	for _, n := range ack.Nacks {
		res.Nacked[n.Series] = true
	}
	// Advance the shadow state exactly as the server did: dictionary
	// additions for every frame, apply only for the acknowledged ones.
	for i := range b.Frames {
		fr := &b.Frames[i]
		if err := c.shadow.AddFrames(fr); err != nil {
			c.reset()
			return sendResult{Reset: true}, err
		}
		cur := c.cursors[keys[i]]
		if res.Nacked[keys[i]] {
			// The server's cursor is stale or poisoned; a fresh local
			// cursor makes the next frame for this series a full one.
			*cur = profdb.SeriesCursor{}
			continue
		}
		if _, err := c.shadow.Apply(cur, fr); err != nil {
			c.reset()
			return sendResult{Reset: true}, fmt.Errorf("stream: shadow apply: %w", err)
		}
		res.Acked++
	}
	if ack.Dict != c.enc.DictLen() {
		// The server saw a different frame history (restart, eviction, a
		// lost batch): nothing referencing the old dictionary can be
		// trusted, so start over.
		c.reset()
		res.Reset = true
	}
	return res, nil
}
