package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// registerBudget is the most a register request of bodyLen bytes, and the
// election of what it admits, may allocate, derived from the admission
// guards rather than measured:
//   - parsing, classification and the response: a fixed multiple of the
//     body plus 1 MiB, since the parser bounds the node count by the text
//     length;
//   - per local round of the protocol, at most canonical.MaxRoundBound of
//     them: the 16-byte round plan and the 1-byte decision target;
//   - the code matrix, at most canonical.MaxCodeMatrix bytes, once for the
//     build's canonical run and once for the election on a shard worker,
//     each counted twice because rows grow by doubling.
func registerBudget(bodyLen int) uint64 {
	const perRound = 16 + 1
	return uint64(64*bodyLen) + 1<<20 + perRound*canonical.MaxRoundBound + 4*canonical.MaxCodeMatrix
}

// FuzzRegisterHandler drives the full POST /v1/register handler with the
// fuzzer's configuration text, as JSON {key, config} or as a binary
// register frame. The handler must not panic and must answer only a status
// docs/SERVER.md documents for a synchronous register, never 500; a key
// that answered 200 must then elect its leader (Theorem 3.15 through the
// whole stack); and the request plus that election must allocate under
// registerBudget.
//
//	go test -run xxx -fuzz FuzzRegisterHandler -fuzztime 15s ./internal/server/
func FuzzRegisterHandler(f *testing.F) {
	for _, text := range []string{
		"nodes 2\ntag 0 0\ntag 1 4611686018427387904\nedge 0 1\n", // 2⁶²
		"nodes 2\ntag 0 0\ntag 1 9223372036854775807\nedge 0 1\n", // 2⁶³−1
		"nodes 50000000\ntag 0 0\n",                               // far past the text
		"nodes 2\ntag 0 0\ntag 1 1000000\nedge 0 1\n",             // past the round limit
		"nodes 2\ntag 0 0\ntag 1 1000000000\nedge 0 1\n",
		"nodes 2\ntag 0 0\ntag 1 249999\nedge 0 1\n", // the longest span admitted
		config.StaggeredPath(400, 600).Marshal(),     // over the code-matrix budget
		config.StaggeredClique(6).Marshal(),
		config.SymmetricPair().Marshal(), // infeasible
		"nodes 3\ntag 0 x\nedge 0 1\n",
		"",
	} {
		f.Add(text, false)
		f.Add(text, true)
	}
	reg := service.New(service.Options{Shards: 2, Builders: 1})
	f.Cleanup(reg.Close)
	h := New(reg, Options{}).Handler()
	serve := func(method, path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	inputs := 0
	f.Fuzz(func(t *testing.T, text string, binary bool) {
		inputs++
		key := fmt.Sprintf("k%d", inputs)
		body, contentType := registerBody(t, key, text, binary)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serve(http.MethodPost, "/v1/register", contentType, body)
		elected := true
		if rec.Code == http.StatusOK {
			elect := serve(http.MethodPost, "/v1/elect", "application/json", []byte(fmt.Sprintf(`{"key":%q}`, key)))
			var out wire.Outcome
			if err := json.Unmarshal(elect.Body.Bytes(), &out); err != nil || elect.Code != http.StatusOK {
				t.Fatalf("elect after a 200 register: status %d, %v, body %q", elect.Code, err, elect.Body.Bytes())
			}
			elected = out.Elected
		}
		runtime.ReadMemStats(&after)

		switch rec.Code {
		case http.StatusOK:
			if !elected {
				t.Fatalf("an admitted configuration elected no leader: %q", text)
			}
			if evict := serve(http.MethodDelete, "/v1/configs/"+key, "", nil); evict.Code != http.StatusOK {
				t.Fatalf("evict: status %d", evict.Code)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
		default:
			t.Fatalf("register answered %d, body %q, for %q", rec.Code, rec.Body.Bytes(), text)
		}
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, registerBudget(len(body)); alloc > budget {
			t.Fatalf("register (status %d) allocated %d bytes, over the %d-byte budget, for a %d-byte body", rec.Code, alloc, budget, len(body))
		}
	})
}

// registerBody encodes a register request for key and text as JSON or as a
// binary frame, with its Content-Type.
func registerBody(t *testing.T, key, text string, binary bool) ([]byte, string) {
	if binary {
		frame := wire.AppendRegisterRequestFrame(nil, &wire.RegisterRequest{Key: key, Config: text})
		return frame, ContentTypeBinary
	}
	body, err := json.Marshal(wire.RegisterRequest{Key: key, Config: text})
	if err != nil {
		t.Fatal(err)
	}
	return body, "application/json"
}
