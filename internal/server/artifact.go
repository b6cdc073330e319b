package server

import (
	"fmt"
	"net/http"

	"anonradio/internal/service"
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
//	POST /v1/admit/artifact   admit such a frame (as RegisterCompiled does):
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

func (d *frontDoor) exportArtifact(w http.ResponseWriter, r *http.Request) {
	c := getCodec(false)
	defer codecs.Put(c)
	key := r.PathValue("key")
	if key == "" {
		c.message(w, http.StatusBadRequest, "missing key")
		return
	}
	frame, err := d.b.ExportArtifact(key)
	if err != nil {
		d.fail(c, w, err)
		return
	}
	writeFrame(w, http.StatusOK, frame)
}

func (d *frontDoor) admitArtifact(w http.ResponseWriter, r *http.Request) {
	c := getCodec(binaryRequest(r))
	defer codecs.Put(c)
	if !c.binary {
		c.message(w, http.StatusUnsupportedMediaType,
			fmt.Sprintf("artifact admission requires Content-Type %q (one WAL-admit wire frame, as served by GET /v1/artifact/{key})", ContentTypeBinary))
		return
	}
	var rec wire.WALAdmit // the body of POST /v1/admit/artifact has no JSON form
	if !c.decode(w, r, d.opts.MaxBodyBytes, &rec, wire.FrameWALAdmit) {
		return
	}
	if rec.Key == "" {
		c.message(w, http.StatusBadRequest, "missing key")
		return
	}
	if rec.Artifact == nil {
		c.message(w, http.StatusBadRequest, "artifact frame carries no compiled artifact")
		return
	}
	// The validated frame is handed on as it arrived (a router forwards it,
	// so an earlier release's phase table still reaches the node's check);
	// the backend may keep it, so the codec lets go of the buffer.
	frame := c.in
	c.in = nil
	if err := d.b.Admit(service.Admission{Key: rec.Key, Config: rec.Config, Artifact: rec.Artifact, Frame: frame}); err != nil {
		d.fail(c, w, err)
		return
	}
	c.registered(w, http.StatusOK, wire.RegisterResponse{Key: rec.Key, Source: "artifact", Status: "admitted"})
}
