// Package drip defines the Distributed Radio Interaction Protocol (DRIP)
// abstraction of Section 2.2 of the paper, the actions a node can take, the
// decision functions used for leader election, and the patient-DRIP
// transformation of Lemma 3.12.
//
// A DRIP is a function D that maps a node's history vector H_v[0..i-1] to the
// action the node performs in its local round i: listen, transmit a message,
// or terminate. All nodes of an anonymous network run the same DRIP; the
// only source of asymmetry is the content of their histories.
package drip

import (
	"fmt"

	"anonradio/internal/history"
)

// ActionKind enumerates the three possible outputs of a DRIP.
type ActionKind uint8

const (
	// Listen means the node stays silent and listens in this round.
	Listen ActionKind = iota
	// Transmit means the node transmits a message to all its neighbours.
	Transmit
	// Terminate means the node permanently stops executing the protocol.
	Terminate
)

// String returns the lower-case name of the action kind.
func (k ActionKind) String() string {
	switch k {
	case Listen:
		return "listen"
	case Transmit:
		return "transmit"
	case Terminate:
		return "terminate"
	default:
		return fmt.Sprintf("ActionKind(%d)", uint8(k))
	}
}

// Action is the decision a node takes in one local round.
type Action struct {
	Kind ActionKind
	// Msg is the transmitted message; meaningful only when Kind == Transmit.
	Msg string
}

// ListenAction returns the listen action.
func ListenAction() Action { return Action{Kind: Listen} }

// TransmitAction returns a transmit action carrying message m.
func TransmitAction(m string) Action { return Action{Kind: Transmit, Msg: m} }

// TerminateAction returns the terminate action.
func TerminateAction() Action { return Action{Kind: Terminate} }

// String renders the action for traces.
func (a Action) String() string {
	if a.Kind == Transmit {
		return fmt.Sprintf("transmit(%q)", a.Msg)
	}
	return a.Kind.String()
}

// Protocol is the executable form of a DRIP: given the history vector
// H[0..i-1] of a node, Act returns the action for local round i (i >= 1, so
// the slice always has at least the wake-up entry H[0]).
//
// Implementations must be deterministic functions of the history only —
// nodes are anonymous, so a Protocol must not try to distinguish nodes by
// identity. Implementations must also eventually return Terminate for every
// execution (the simulator additionally enforces a round limit).
type Protocol interface {
	Act(h history.Vector) Action
}

// Func adapts a plain function to the Protocol interface.
type Func func(h history.Vector) Action

// Act implements Protocol.
func (f Func) Act(h history.Vector) Action { return f(h) }

// Decision maps a node's complete history (up to and including its
// termination round) to 1 (leader) or 0 (non-leader). A dedicated leader
// election algorithm for a configuration G is a pair (Protocol, Decision)
// such that exactly one node of G outputs 1.
type Decision interface {
	Decide(h history.Vector) int
}

// DecisionFunc adapts a plain function to the Decision interface.
type DecisionFunc func(h history.Vector) int

// Decide implements Decision.
func (f DecisionFunc) Decide(h history.Vector) int { return f(h) }

// HistoryMatchDecision is a Decision that elects exactly the node whose
// complete history equals Target. It is how dedicated algorithms derived
// from the Classifier designate their leader (Lemma 3.11): the leader is the
// unique node with a designated history.
type HistoryMatchDecision struct {
	// Target is the designated history in entry codes (history.CodeSilence
	// and so on), Message being the message coded history.CodeMessage. A
	// history.CodeOther entry matches nothing.
	Target  []byte
	Message string
}

// Decide implements Decision: it codes each entry of h and compares it with
// the target's.
func (d HistoryMatchDecision) Decide(h history.Vector) int {
	if len(h) != len(d.Target) {
		return 0
	}
	for i, e := range h {
		if c := e.Code(d.Message); c == history.CodeOther || c != d.Target[i] {
			return 0
		}
	}
	return 1
}

// Algorithm bundles a protocol and a decision function: a complete dedicated
// leader election algorithm in the sense of Section 2.3.
type Algorithm struct {
	Protocol Protocol
	Decision Decision
	// Name optionally identifies the algorithm in reports.
	Name string
}
