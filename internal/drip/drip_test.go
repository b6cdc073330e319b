package drip

import (
	"strings"
	"testing"

	"anonradio/internal/history"
)

func TestActionKindString(t *testing.T) {
	if Listen.String() != "listen" || Transmit.String() != "transmit" || Terminate.String() != "terminate" {
		t.Fatalf("action kind names wrong")
	}
	if !strings.Contains(ActionKind(42).String(), "42") {
		t.Fatalf("unknown kind string: %q", ActionKind(42).String())
	}
}

func TestActionConstructorsAndString(t *testing.T) {
	if ListenAction().Kind != Listen {
		t.Fatalf("ListenAction wrong")
	}
	if a := TransmitAction("hello"); a.Kind != Transmit || a.Msg != "hello" {
		t.Fatalf("TransmitAction wrong: %v", a)
	}
	if TerminateAction().Kind != Terminate {
		t.Fatalf("TerminateAction wrong")
	}
	if s := TransmitAction("m").String(); !strings.Contains(s, `"m"`) {
		t.Fatalf("transmit string: %q", s)
	}
	if ListenAction().String() != "listen" {
		t.Fatalf("listen string: %q", ListenAction().String())
	}
}

func TestFuncAdapter(t *testing.T) {
	p := Func(func(h history.Vector) Action {
		if len(h) >= 2 {
			return TerminateAction()
		}
		return ListenAction()
	})
	if p.Act(history.Vector{history.Silent()}).Kind != Listen {
		t.Fatalf("Func adapter broken")
	}
	if p.Act(history.Vector{history.Silent(), history.Silent()}).Kind != Terminate {
		t.Fatalf("Func adapter broken")
	}
}

func TestDecisionAdapters(t *testing.T) {
	d := DecisionFunc(func(h history.Vector) int { return len(h) % 2 })
	if d.Decide(history.Vector{history.Silent()}) != 1 {
		t.Fatalf("DecisionFunc broken")
	}
	target := history.Vector{history.Silent(), history.Received("1"), history.Collision()}
	m := HistoryMatchDecision{Target: target.AppendCodes(nil, "1"), Message: "1"}
	if m.Decide(target.Clone()) != 1 {
		t.Fatalf("HistoryMatchDecision should match equal history")
	}
	for _, h := range []history.Vector{
		{history.Silent()},
		{history.Silent(), history.Received("1"), history.Collision(), history.Silent()},
		{history.Silent(), history.Received("2"), history.Collision()},
		{history.Silent(), history.Silent(), history.Collision()},
	} {
		if m.Decide(h) != 0 {
			t.Fatalf("HistoryMatchDecision should reject %s", h)
		}
	}
	// A foreign entry in the target codes as CodeOther, which matches
	// nothing, not even the same foreign entry.
	foreign := history.Vector{history.Silent(), history.Received("2")}
	if (HistoryMatchDecision{Target: foreign.AppendCodes(nil, "1"), Message: "1"}).Decide(foreign) != 0 {
		t.Fatalf("HistoryMatchDecision matched a foreign entry")
	}
}

func TestSilentTerminator(t *testing.T) {
	p := SilentTerminator{}
	if p.Act(history.Vector{history.Silent()}).Kind != Terminate {
		t.Fatalf("SilentTerminator must terminate immediately")
	}
}

func TestBeepAt(t *testing.T) {
	b := BeepAt{Round: 3, StopAfter: 5}
	spont := history.Vector{history.Silent()}
	// local round 1, 2: listen
	if b.Act(spont).Kind != Listen {
		t.Fatalf("round 1 should listen")
	}
	if b.Act(append(spont.Clone(), history.Silent())).Kind != Listen {
		t.Fatalf("round 2 should listen")
	}
	// local round 3: transmit "1" by default
	h3 := history.Vector{history.Silent(), history.Silent(), history.Silent()}
	if a := b.Act(h3); a.Kind != Transmit || a.Msg != "1" {
		t.Fatalf("round 3 should transmit default message, got %v", a)
	}
	// custom message
	if a := (BeepAt{Round: 3, StopAfter: 5, Msg: "z"}).Act(h3); a.Msg != "z" {
		t.Fatalf("custom message lost: %v", a)
	}
	// after StopAfter: terminate
	h5 := make(history.Vector, 5)
	if b.Act(h5).Kind != Terminate {
		t.Fatalf("round 5 should terminate")
	}
	// forced wake-up: never transmit
	forced := history.Vector{history.Received("1"), history.Silent(), history.Silent()}
	if b.Act(forced).Kind != Listen {
		t.Fatalf("forced-woken node should not transmit")
	}
	// validation
	if err := (BeepAt{Round: 0, StopAfter: 2}).Validate(); err == nil {
		t.Fatalf("round 0 should be invalid")
	}
	if err := (BeepAt{Round: 2, StopAfter: 2}).Validate(); err == nil {
		t.Fatalf("stop <= round should be invalid")
	}
	if err := (BeepAt{Round: 1, StopAfter: 2}).Validate(); err != nil {
		t.Fatalf("valid BeepAt rejected: %v", err)
	}
}

func TestWakeupFlood(t *testing.T) {
	w := WakeupFlood{Delay: 1, Quiet: 1}
	spont := history.Vector{history.Silent()}
	if w.Act(spont).Kind != Listen {
		t.Fatalf("round 1 with delay 1 should listen")
	}
	h2 := history.Vector{history.Silent(), history.Silent()}
	if a := w.Act(h2); a.Kind != Transmit || a.Msg != "w" {
		t.Fatalf("round 2 should transmit, got %v", a)
	}
	h3 := append(h2.Clone(), history.Silent())
	if w.Act(h3).Kind != Listen {
		t.Fatalf("quiet round should listen")
	}
	h4 := append(h3.Clone(), history.Silent())
	if w.Act(h4).Kind != Terminate {
		t.Fatalf("after quiet rounds should terminate")
	}
	// forced wake-up transmits immediately
	forced := history.Vector{history.Received("w")}
	if w.Act(forced).Kind != Transmit {
		t.Fatalf("forced node should retransmit in round 1")
	}
}

func TestListenForever(t *testing.T) {
	l := ListenForever{Rounds: 2}
	if l.Act(history.Vector{history.Silent()}).Kind != Listen {
		t.Fatalf("round 1 should listen")
	}
	if l.Act(make(history.Vector, 3)).Kind != Terminate {
		t.Fatalf("round 3 should terminate")
	}
}

func TestPatientConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("negative span", func() { NewPatient(-1, SilentTerminator{}) })
	mustPanic("nil inner", func() { NewPatient(1, nil) })
	if NewPatient(0, SilentTerminator{}) == nil {
		t.Fatalf("valid patient rejected")
	}
}

func TestPatientListensThenDelegates(t *testing.T) {
	inner := BeepAt{Round: 1, StopAfter: 2}
	p := NewPatient(3, inner)

	// Spontaneous wake-up, no messages: listen through local rounds 1..3,
	// then delegate with the suffix starting at index σ=3.
	h := history.Vector{history.Silent()}
	for i := 1; i <= 3; i++ {
		if a := p.Act(h); a.Kind != Listen {
			t.Fatalf("patient round %d should listen, got %v", i, a)
		}
		h = append(h, history.Silent())
	}
	// len(h)=4 > σ=3: the inner protocol sees h[3:] = one silent entry, so it
	// is in its local round 1 and transmits.
	if a := p.Act(h); a.Kind != Transmit {
		t.Fatalf("patient should delegate to inner transmit, got %v", a)
	}
}

func TestPatientForcedWakeupSimulation(t *testing.T) {
	inner := BeepAt{Round: 1, StopAfter: 2}
	p := NewPatient(4, inner)
	// A message arrives in local round 2 (index 2): s_w = 2, so from local
	// round 3 on the inner protocol runs on the suffix starting at index 2,
	// whose first entry is the message — the inner protocol sees a forced
	// wake-up and never transmits.
	h := history.Vector{history.Silent(), history.Silent(), history.Received("1")}
	if a := p.Act(h); a.Kind != Listen {
		t.Fatalf("inner protocol should see a forced wake-up and listen, got %v", a)
	}
	h = append(h, history.Silent())
	if a := p.Act(h); a.Kind != Terminate {
		t.Fatalf("inner protocol should terminate in its round 2, got %v", a)
	}
}

func TestPatientStartIndexCapsAtSpan(t *testing.T) {
	inner := BeepAt{Round: 1, StopAfter: 2}
	p := NewPatient(2, inner)
	// Message arrives only after σ rounds: it must not shift the start.
	h := history.Vector{history.Silent(), history.Silent(), history.Silent(), history.Received("x")}
	// len(h)=4 > σ=2, suffix = h[2:] whose first entry is silence, round 2 of
	// the inner protocol: terminate... wait suffix length is 2, so inner is in
	// round 2 -> i >= StopAfter -> terminate.
	if a := p.Act(h); a.Kind != Terminate {
		t.Fatalf("expected inner round-2 terminate, got %v", a)
	}
}

func TestPatientDecision(t *testing.T) {
	inner := DecisionFunc(func(h history.Vector) int {
		if len(h) > 0 && h[0].Kind == history.Message {
			return 1
		}
		return 0
	})
	d := PatientDecision{Span: 2, Inner: inner}
	// History with the first message at index 1 (within the span): the inner
	// decision sees the suffix starting there and elects.
	h := history.Vector{history.Silent(), history.Received("1"), history.Silent()}
	if d.Decide(h) != 1 {
		t.Fatalf("patient decision should delegate with the message-aligned suffix")
	}
	// No message: suffix starts at σ.
	h2 := history.Vector{history.Silent(), history.Silent(), history.Silent(), history.Silent()}
	if d.Decide(h2) != 0 {
		t.Fatalf("patient decision wrong on spontaneous history")
	}
	// Degenerate short history.
	if d.Decide(history.Vector{history.Silent()}) != 0 {
		t.Fatalf("patient decision should be total on short histories")
	}
}

func TestMakePatient(t *testing.T) {
	alg := Algorithm{
		Name:     "demo",
		Protocol: BeepAt{Round: 1, StopAfter: 2},
		Decision: DecisionFunc(func(h history.Vector) int { return 0 }),
	}
	p := MakePatient(3, alg)
	if p.Name != "demo-patient" {
		t.Fatalf("patient algorithm name: %q", p.Name)
	}
	if _, ok := p.Protocol.(*Patient); !ok {
		t.Fatalf("patient protocol not wrapped")
	}
	if _, ok := p.Decision.(PatientDecision); !ok {
		t.Fatalf("patient decision not wrapped")
	}
}
