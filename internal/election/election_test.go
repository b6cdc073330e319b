package election

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"anonradio/internal/config"
	"anonradio/internal/core"
	"anonradio/internal/drip"
	"anonradio/internal/radio"
)

// electPaths are the two ways Elect runs: untraced on the convenience
// simulator, traced on a one-shot Sequential engine.
var electPaths = []struct {
	name string
	opts radio.Options
}{
	{"untraced", radio.Options{}},
	{"traced", radio.Options{RecordTrace: true}},
}

func buildDedicated(t *testing.T, cfg *config.Config) *Dedicated {
	t.Helper()
	d, err := BuildDedicated(cfg)
	if err != nil {
		t.Fatalf("BuildDedicated(%s): %v", cfg, err)
	}
	return d
}

func TestBuildDedicatedInfeasible(t *testing.T) {
	cases := []*config.Config{
		config.SymmetricPair(),
		config.SymmetricFamilyS(3),
		config.UniformTags(config.SymmetricPair().Graph()),
	}
	for _, cfg := range cases {
		if _, err := BuildDedicated(cfg); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: expected ErrInfeasible, got %v", cfg, err)
		}
	}
	if _, err := BuildDedicated(nil); err == nil {
		t.Fatalf("nil configuration should error")
	}
	if _, err := BuildFromReport(nil); err == nil {
		t.Fatalf("nil report should error")
	}
}

func TestBuildFromReportReusesClassification(t *testing.T) {
	cfg := config.SpanFamilyH(2)
	rep, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	d, err := BuildFromReport(rep)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if d.Report != rep || d.ExpectedLeader != rep.Leader {
		t.Fatalf("BuildFromReport should reuse the given report")
	}
}

func TestDedicatedElectionOnKnownFamilies(t *testing.T) {
	cases := []*config.Config{
		config.SingleNode(),
		config.AsymmetricPair(1),
		config.AsymmetricPair(4),
		config.SpanFamilyH(1),
		config.SpanFamilyH(3),
		config.LineFamilyG(2),
		config.LineFamilyG(3),
		config.StaggeredPath(7, 1),
		config.StaggeredClique(6),
		config.EarlyCenterStar(6, 2),
		config.TwoBlockCycle(3),
	}
	for _, cfg := range cases {
		d := buildDedicated(t, cfg)
		for _, p := range electPaths {
			out, err := d.Elect(p.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg, p.name, err)
			}
			if err := d.Verify(out); err != nil {
				t.Fatalf("%s %s: %v", cfg, p.name, err)
			}
			if out.Leader() != d.Report.Leader {
				t.Fatalf("%s %s: elected %d, classifier designated %d",
					cfg, p.name, out.Leader(), d.Report.Leader)
			}
		}
	}
}

func TestLineFamilyElectsCentre(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		cfg := config.LineFamilyG(m)
		d := buildDedicated(t, cfg)
		out, err := d.Elect(radio.Options{})
		if err != nil {
			t.Fatalf("G_%d: %v", m, err)
		}
		if out.Leader() != 2*m {
			t.Fatalf("G_%d elected %d, want the central node %d", m, out.Leader(), 2*m)
		}
	}
}

func TestElectionRoundLowerBoundSpanFamily(t *testing.T) {
	// Lemma 4.2: electing a leader on H_m takes at least m rounds. The
	// canonical algorithm must respect that bound (and stay within its own
	// upper bound, checked by Verify inside MinimumElectionRounds).
	for _, m := range []int{1, 2, 5, 10, 20} {
		rounds, leader, err := MinimumElectionRounds(config.SpanFamilyH(m))
		if err != nil {
			t.Fatalf("H_%d: %v", m, err)
		}
		if rounds < m {
			t.Fatalf("H_%d elected in %d rounds, violating the Ω(σ) lower bound m=%d", m, rounds, m)
		}
		if leader < 0 || leader > 3 {
			t.Fatalf("H_%d elected invalid leader %d", m, leader)
		}
	}
}

func TestElectionRoundLowerBoundLineFamily(t *testing.T) {
	// Proposition 4.1: electing a leader on G_m takes Ω(n) rounds; the proof
	// gives the concrete bound of at least m-1 rounds.
	for _, m := range []int{2, 3, 5} {
		cfg := config.LineFamilyG(m)
		rounds, _, err := MinimumElectionRounds(cfg)
		if err != nil {
			t.Fatalf("G_%d: %v", m, err)
		}
		if rounds < m-1 {
			t.Fatalf("G_%d elected in %d rounds, violating the Ω(n) lower bound", m, rounds)
		}
	}
}

func TestRoundBoundMatchesTheorem(t *testing.T) {
	// Theorem 3.15: O(n²σ) rounds. Check the concrete per-configuration
	// bound recorded in the Dedicated value against n²·σ terms.
	cases := []*config.Config{
		config.SpanFamilyH(4),
		config.LineFamilyG(3),
		config.StaggeredClique(7),
	}
	for _, cfg := range cases {
		d := buildDedicated(t, cfg)
		n, sigma := cfg.N(), cfg.Span()
		// Concrete form of the O(n²σ) bound: ⌈n/2⌉ phases, each at most
		// n(2σ+1)+σ rounds, plus wake-up offset σ and the final round.
		bound := sigma + (n+1)/2*(n*(2*sigma+1)+sigma) + 2
		if d.RoundBound > bound {
			t.Fatalf("%s: round bound %d exceeds closed-form bound %d", cfg, d.RoundBound, bound)
		}
		out, err := d.Elect(radio.Options{})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if out.Rounds > d.RoundBound {
			t.Fatalf("%s: observed %d rounds above bound %d", cfg, out.Rounds, d.RoundBound)
		}
	}
}

func TestVerifyRejectsWrongOutcomes(t *testing.T) {
	d := buildDedicated(t, config.SpanFamilyH(2))
	if err := d.Verify(nil); err == nil {
		t.Fatalf("nil outcome should be rejected")
	}
	out, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	good := *out
	if err := d.Verify(&good); err != nil {
		t.Fatalf("correct outcome rejected: %v", err)
	}
	noLeader := *out
	noLeader.Leaders = nil
	if err := d.Verify(&noLeader); err == nil {
		t.Fatalf("outcome without leaders should be rejected")
	}
	wrongLeader := *out
	wrongLeader.Leaders = []int{(d.ExpectedLeader + 1) % d.Config.N()}
	if err := d.Verify(&wrongLeader); err == nil {
		t.Fatalf("wrong leader should be rejected")
	}
	slow := *out
	slow.Rounds = d.RoundBound + 5
	if err := d.Verify(&slow); err == nil {
		t.Fatalf("outcome above the round bound should be rejected")
	}
}

func TestVerifyCorrespondenceLemma39(t *testing.T) {
	cases := []*config.Config{
		config.SpanFamilyH(2),
		config.LineFamilyG(3),
		config.StaggeredClique(5),
		config.TwoBlockCycle(3),
	}
	for _, cfg := range cases {
		d := buildDedicated(t, cfg)
		res, err := radio.Sequential{}.Run(cfg.Normalized(), d.DRIP, radio.Options{})
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if err := d.VerifyCorrespondence(res); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
	}
}

func TestFeasibleWrapper(t *testing.T) {
	ok, err := Feasible(config.SpanFamilyH(1))
	if err != nil || !ok {
		t.Fatalf("H_1 should be feasible: %v %v", ok, err)
	}
	ok, err = Feasible(config.SymmetricPair())
	if err != nil || ok {
		t.Fatalf("symmetric pair should be infeasible: %v %v", ok, err)
	}
}

func TestSymmetryBreakingFailedDetector(t *testing.T) {
	// On the symmetric pair every history is duplicated.
	res, err := radio.Sequential{}.Run(config.SymmetricPair(), drip.SilentTerminator{}, radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !SymmetryBreakingFailed(res) {
		t.Fatalf("symmetric pair with a silent protocol must fail symmetry breaking")
	}
	// On the asymmetric pair with a transmitting protocol the histories
	// differ.
	res, err = radio.Sequential{}.Run(config.AsymmetricPair(1), drip.BeepAt{Round: 1, StopAfter: 3}, radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if SymmetryBreakingFailed(res) {
		t.Fatalf("asymmetric pair should produce a unique history")
	}
}

func TestFirstTransmissionRound(t *testing.T) {
	cfg := config.SpanFamilyH(5)
	// BeepAt makes the tag-0 nodes transmit in their local round 3 = global
	// round 3.
	r, err := FirstTransmissionRound(cfg, drip.BeepAt{Round: 3, StopAfter: 4}, []int{1, 2}, 1000)
	if err != nil || r != 3 {
		t.Fatalf("first transmission = %d, %v; want 3", r, err)
	}
	// A silent protocol never transmits.
	r, err = FirstTransmissionRound(cfg, drip.SilentTerminator{}, []int{1, 2}, 1000)
	if err != nil || r != -1 {
		t.Fatalf("silent protocol first transmission = %d, %v; want -1", r, err)
	}
	// Restricting to other nodes ignores the transmitters.
	r, err = FirstTransmissionRound(cfg, drip.BeepAt{Round: 3, StopAfter: 4}, []int{0}, 1000)
	if err != nil || r != -1 {
		t.Fatalf("node-filtered first transmission = %d, %v; want -1", r, err)
	}
}

func TestUniversalCounterexampleForCanonicalCandidates(t *testing.T) {
	// Proposition 4.4: take the dedicated canonical algorithm built for H_k
	// and exhibit a feasible 4-node configuration H_m on which it cannot
	// elect a leader.
	for _, k := range []int{1, 2, 4} {
		d := buildDedicated(t, config.SpanFamilyH(k))
		m, err := UniversalCounterexample(d.DRIP, 200000)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if m < 1 {
			t.Fatalf("k=%d: invalid counterexample index %d", k, m)
		}
		// The counterexample is itself a feasible configuration.
		feasible, err := Feasible(config.SpanFamilyH(m))
		if err != nil || !feasible {
			t.Fatalf("k=%d: H_%d should be feasible (%v, %v)", k, m, feasible, err)
		}
		// And it must differ from what the candidate was built for, except
		// in the degenerate silent case.
		if m == k {
			t.Fatalf("k=%d: counterexample should not be the dedicated configuration itself", k)
		}
	}
}

func TestUniversalCounterexampleGenericCandidates(t *testing.T) {
	// A never-transmitting candidate fails everywhere (m = 1).
	m, err := UniversalCounterexample(drip.SilentTerminator{}, 1000)
	if err != nil || m != 1 {
		t.Fatalf("silent candidate: m=%d err=%v, want m=1", m, err)
	}
	// A beeping candidate that transmits in round 4: counterexample at
	// m = 4+1... the first transmission of the tag-0 nodes is global round 4,
	// so the counterexample index is 5.
	m, err = UniversalCounterexample(drip.BeepAt{Round: 4, StopAfter: 6}, 1000)
	if err != nil {
		t.Fatalf("beep candidate: %v", err)
	}
	if m != 5 {
		t.Fatalf("beep candidate counterexample m=%d, want 5", m)
	}
}

func TestDecisionIndistinguishability(t *testing.T) {
	// Proposition 4.5: for each candidate protocol, H_{t+1} and S_{t+1} are
	// indistinguishable, although the first is feasible and the second is
	// not.
	candidates := []drip.Protocol{
		drip.BeepAt{Round: 2, StopAfter: 5},
		buildDedicated(t, config.SpanFamilyH(2)).DRIP,
		buildDedicated(t, config.SpanFamilyH(5)).DRIP,
	}
	for i, cand := range candidates {
		m, same, err := DecisionIndistinguishability(cand, 200000)
		if err != nil {
			t.Fatalf("candidate %d: %v", i, err)
		}
		if !same {
			t.Fatalf("candidate %d: H_%d and S_%d were distinguishable", i, m, m)
		}
		feasibleH, _ := Feasible(config.SpanFamilyH(m))
		feasibleS, _ := Feasible(config.SymmetricFamilyS(m))
		if !feasibleH || feasibleS {
			t.Fatalf("candidate %d: expected H_%d feasible and S_%d infeasible", i, m, m)
		}
	}
	// The silent candidate is reported as trivially indistinguishable.
	m, same, err := DecisionIndistinguishability(drip.SilentTerminator{}, 1000)
	if err != nil || !same || m != 1 {
		t.Fatalf("silent candidate: m=%d same=%v err=%v", m, same, err)
	}
}

func TestPropertyRandomFeasibleConfigsElectCorrectly(t *testing.T) {
	f := func(seed int64, sz, span uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%10) + 2
		cfg := config.Random(n, 0.3, config.UniformRandomTags{Span: int(span%4) + 1}, rng)
		rep, err := core.Classify(cfg)
		if err != nil {
			return false
		}
		if !rep.Feasible() {
			return true // nothing to elect
		}
		d, err := BuildFromReport(rep)
		if err != nil {
			return false
		}
		out, err := d.Elect(radio.Options{})
		if err != nil {
			return false
		}
		if d.Verify(out) != nil {
			return false
		}
		// Lemma 3.9 correspondence on the same run.
		return d.VerifyCorrespondence(out.Result) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatalf("random feasible configurations failed to elect: %v", err)
	}
}

func TestPropertyEnginesAgreeOnElection(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%8) + 2
		cfg := config.RandomTreeConfig(n, config.UniformRandomTags{Span: 3}, rng)
		rep, err := core.Classify(cfg)
		if err != nil || !rep.Feasible() {
			return true
		}
		d, err := BuildFromReport(rep)
		if err != nil {
			return false
		}
		a, err1 := d.Elect(radio.Options{})
		b, err2 := d.Elect(radio.Options{RecordTrace: true})
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Leader() == b.Leader() && a.Rounds == b.Rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("traced and untraced elections disagree: %v", err)
	}
}

func TestBuildDedicatedLeanReportInterplay(t *testing.T) {
	// BuildDedicated classifies in lean mode: the attached report keeps only
	// the final snapshot, yet Iterations() must still report the Partitioner
	// call count (via the Stats counter) and VerifyCorrespondence must
	// re-derive the snapshot history on demand.
	cfg := config.StaggeredClique(8)
	full, err := core.Classify(cfg)
	if err != nil {
		t.Fatalf("%v", err)
	}
	d := buildDedicated(t, cfg)
	if len(d.Report.Snapshots) > 1 {
		t.Fatalf("BuildDedicated should attach a lean report, got %d snapshots", len(d.Report.Snapshots))
	}
	if got, want := d.Report.Iterations(), full.Iterations(); got != want {
		t.Fatalf("lean report Iterations() = %d, full classification = %d", got, want)
	}
	if d.Report.Leader != full.Leader || d.Report.Feasible() != full.Feasible() {
		t.Fatalf("lean report disagrees with the full classification")
	}
	out, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if err := d.Verify(out); err != nil {
		t.Fatalf("%v", err)
	}
	if err := d.VerifyCorrespondence(out.Result); err != nil {
		t.Fatalf("correspondence on a lean-report build: %v", err)
	}
}

// TestElectSteadyStateAllocs is the acceptance check for the pooled election
// hot path: once the dedicated algorithm's simulator and outcome are warm, a
// complete election — phase-table Act calls, dirty-list medium, decision
// scan — performs zero heap allocations.
func TestElectSteadyStateAllocs(t *testing.T) {
	d := buildDedicated(t, config.StaggeredClique(16))
	var out radio.ElectionOutcome
	run := func() {
		if err := d.ElectInto(&out, radio.Options{}); err != nil {
			t.Fatalf("%v", err)
		}
		if len(out.Leaders) != 1 || out.Leaders[0] != d.ExpectedLeader {
			t.Fatalf("steady-state election failed: %v", out.Leaders)
		}
	}
	run() // warm the simulator buffers and the leaders slice
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state election allocates %.1f times, want 0", allocs)
	}
	if err := d.ElectInto(nil, radio.Options{}); err == nil {
		t.Fatalf("nil outcome should be rejected")
	}
}

func TestElectPooledMatchesOneShotEngines(t *testing.T) {
	// The pooled path and the one-shot engine must agree on the leader and
	// round count; the pooled outcome's Result must stay usable until the
	// next run.
	d := buildDedicated(t, config.LineFamilyG(3))
	pooled, err := d.Elect(radio.Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	leader, rounds := pooled.Leader(), pooled.Rounds
	hist := pooled.Result.Histories[leader].Clone()
	for _, e := range []radio.Engine{radio.Sequential{}} {
		out, err := radio.RunElection(e, d.Config, d.Algorithm, radio.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if out.Leader() != leader || out.Rounds != rounds {
			t.Fatalf("%s: leader %d rounds %d, pooled got %d/%d", e.Name(), out.Leader(), out.Rounds, leader, rounds)
		}
		if !out.Result.Histories[leader].Equal(hist) {
			t.Fatalf("%s: leader history diverged from the pooled run", e.Name())
		}
	}
}
