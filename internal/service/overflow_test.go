package service

import (
	"errors"
	"fmt"
	"testing"

	"anonradio/internal/canonical"
	"anonradio/internal/config"
)

// TestRegisterOverflowingTagsRejected registers 2-node configurations whose
// one huge tag makes the canonical DRIP's round arithmetic overflow: each
// registration must fail with canonical.ErrRoundOverflow instead of
// panicking a builder goroutine, and the registry must go on admitting and
// serving other keys.
func TestRegisterOverflowingTagsRejected(t *testing.T) {
	r := New(Options{Shards: 2})
	t.Cleanup(r.Close)
	for _, tag := range []string{"4611686018427387904", "9223372036854775807", "6148914691236517205"} {
		cfg, err := config.Unmarshal(fmt.Sprintf("nodes 2\ntag 0 0\ntag 1 %s\nedge 0 1\n", tag))
		if err != nil {
			t.Fatalf("tag %s: %v", tag, err)
		}
		if err := r.Register("huge-"+tag, cfg); !errors.Is(err, canonical.ErrRoundOverflow) {
			t.Fatalf("tag %s: register returned %v, want ErrRoundOverflow", tag, err)
		}
		if _, err := r.Elect("huge-" + tag); !errors.Is(err, ErrUnknownKey) {
			t.Fatalf("tag %s: elect after a failed admission returned %v", tag, err)
		}
	}
	cfg := config.StaggeredClique(6)
	if err := r.Register("clique", cfg); err != nil {
		t.Fatal(err)
	}
	out, err := r.Elect("clique")
	if err != nil || !out.Elected() {
		t.Fatalf("elect after the rejected admissions: %+v, %v", out, err)
	}
}
