package server

import (
	"fmt"
	"net/http"

	"anonradio/internal/config"
	"anonradio/internal/wire"
)

// This file is the artifact-shipping path of the fleet layer: the pair of
// endpoints a key migration rides on (see internal/fleet.Fleet.Rebalance
// and docs/SERVER.md).
//
//	GET  /v1/artifact/{key}   export one key's compiled artifact as a single
//	                          binary WAL-admit frame: key, configuration
//	                          text, and the compiled algorithm — exactly
//	                          what the journal records for the admission,
//	                          so the frame round-trips through every
//	                          consumer the journal already has.
//	POST /v1/admit/artifact   admit such a frame (service.RegisterCompiled):
//	                          the receiver loads the shipped artifact,
//	                          compiling its phase table from the lists,
//	                          instead of reclassifying the configuration.
//	                          An artifact that contradicts itself or the
//	                          configuration is refused with 422.
//
// The export body is always the binary encoding (an artifact *is* a wire
// frame; there is no JSON variant), and the admit endpoint accepts only
// that encoding back — a request with any other Content-Type is a 415.
// Errors on both endpoints follow the encoding of the conversation: JSON
// on the export (its request has no body to negotiate with), error frames
// on the admit path, mirroring the other binary handlers.

func (s *Server) handleArtifactExport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing key"})
		return
	}
	frame, err := s.reg.ExportArtifact(key)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeBinary(w, http.StatusOK, frame)
}

func (s *Server) handleAdmitArtifact(w http.ResponseWriter, r *http.Request) {
	if !binaryRequest(r) {
		writeJSON(w, http.StatusUnsupportedMediaType, ErrorResponse{
			Error: fmt.Sprintf("artifact admission requires Content-Type %q (one WAL-admit wire frame, as served by GET /v1/artifact/{key})", ContentTypeBinary),
		})
		return
	}
	c := codecs.Get().(*codec)
	defer codecs.Put(c)
	payload, ok := s.decodeBinary(w, r, c, wire.FrameWALAdmit)
	if !ok {
		return
	}
	var rec wire.WALAdmit
	if err := rec.DecodeFrom(payload); err != nil {
		s.binaryMessage(w, c, http.StatusBadRequest, fmt.Sprintf("decoding artifact frame: %v", err))
		return
	}
	if rec.Key == "" {
		s.binaryMessage(w, c, http.StatusBadRequest, "missing key")
		return
	}
	if rec.Artifact == nil {
		s.binaryMessage(w, c, http.StatusBadRequest, "artifact frame carries no compiled artifact")
		return
	}
	cfg, err := config.Unmarshal(rec.Config)
	if err != nil {
		s.binaryMessage(w, c, http.StatusBadRequest, fmt.Sprintf("parsing config: %v", err))
		return
	}
	if err := s.reg.RegisterCompiled(rec.Key, rec.Artifact, cfg); err != nil {
		s.binaryError(w, c, err)
		return
	}
	resp := wire.RegisterResponse{Key: rec.Key, Source: "artifact", Status: "admitted"}
	c.out = wire.AppendRegisterResponseFrame(c.out[:0], &resp)
	writeBinary(w, http.StatusOK, c.out)
}
