package main

// The /cluster/* control surface — only registered when dcserver boots
// with -node-id/-peers. Four groups:
//
//	POST /cluster/partials   one node's share of a scatter-gather query
//	POST /cluster/ingest     forwarded profiles from the ingest router
//	                         (an /ingest body, applied without routing)
//	POST /cluster/export     }
//	POST /cluster/import     } the staged join/handoff protocol —
//	POST /cluster/table      } see internal/cluster/handoff.go
//	POST /cluster/drop       }
//	POST /cluster/join       drive a membership change from this node
//	GET  /cluster/status     routing table + per-peer health
//
// Partials answers, export answers and import bodies are binary peer-wire
// messages (internal/cluster/peerwire.go); requests, errors and every
// other body are JSON.
//
// Peers are trusted: the /cluster/* surface shares the public listener,
// so deployments that cannot trust the network should front it with
// transport auth (see docs/OPERATIONS.md §11).

import (
	"encoding/json"
	"fmt"
	"net/http"

	"deepcontext/internal/cluster"
)

// readJSONBody decodes a bounded JSON request body into v.
func (s *server) readJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode request: %w", err))
		return false
	}
	return true
}

// POST /cluster/partials — evaluate one scatter-gather share locally and
// answer in the binary peer wire (internal/cluster/peerwire.go).
func (s *server) handleClusterPartials(w http.ResponseWriter, r *http.Request) {
	var req cluster.PartialsRequest
	if !s.readJSONBody(w, r, &req) {
		return
	}
	resp, err := cluster.ServePartials(r.Context(), s.store, &req)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	cluster.WritePartials(w, resp)
}

// POST /cluster/ingest — a forward from a peer's ingest router: an
// /ingest body (one profdb bundle) holding profiles this node owns, applied
// locally through the same code as /ingest and never routed again.
func (s *server) handleClusterIngest(w http.ResponseWriter, r *http.Request) {
	s.ingest(w, r, false)
}

// POST /cluster/export — compute this node's handoff export for a
// proposed table.
func (s *server) handleClusterExport(w http.ResponseWriter, r *http.Request) {
	var req cluster.ExportRequest
	if !s.readJSONBody(w, r, &req) {
		return
	}
	if req.Table == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: export needs a proposed table"))
		return
	}
	set, err := cluster.ExportMoved(r.Context(), s.store, s.cluster.Self(), req.Table)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cluster.WritePartials(w, &cluster.PartialsResponse{Set: set})
}

// POST /cluster/import — install a handoff delivery, a peer-wire message
// (durable before the response).
func (s *server) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	if !s.beginWrite() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.endWrite()
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	msg, err := cluster.DecodePartials(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode request: %w", err))
		return
	}
	n, err := cluster.ImportSet(s.store, msg.Set)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, struct {
		Imported int `json:"imported"`
	}{n})
}

// POST /cluster/table — commit a new routing table on this node.
func (s *server) handleClusterTable(w http.ResponseWriter, r *http.Request) {
	var t cluster.Table
	if !s.readJSONBody(w, r, &t) {
		return
	}
	if err := s.cluster.SetTable(&t); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, struct {
		Generation uint64 `json:"generation"`
	}{s.cluster.Table().Generation})
}

// POST /cluster/drop — drop every series this node no longer owns under
// its committed table.
func (s *server) handleClusterDrop(w http.ResponseWriter, r *http.Request) {
	if !s.beginWrite() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.endWrite()
	n, err := s.cluster.DropUnowned()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, struct {
		Dropped int `json:"dropped"`
	}{n})
}

// POST /cluster/join — drive a membership change from this node: body is
// the proposed table (generation bumped past the current one).
func (s *server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var t cluster.Table
	if !s.readJSONBody(w, r, &t) {
		return
	}
	rep, err := s.cluster.Join(r.Context(), &t)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, rep)
}

// GET /cluster/status — routing table, per-peer health, degraded flag.
func (s *server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.cluster.Status(r.Context()))
}
