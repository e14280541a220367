package dist_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nwforest/internal/dist"
)

type progressCall struct {
	phase       string
	phaseRounds int
	total       int
}

type trafficCall struct {
	phase string
	msgs  int64
	bits  int64
}

// recordingObserver is a dist.Observer that remembers every charge.
type recordingObserver struct {
	phases  []progressCall
	traffic []trafficCall
}

func (r *recordingObserver) PhaseCharged(phase string, phaseRounds, total int) {
	r.phases = append(r.phases, progressCall{phase, phaseRounds, total})
}

func (r *recordingObserver) TrafficCharged(phase string, msgs, bits int64) {
	r.traffic = append(r.traffic, trafficCall{phase, msgs, bits})
}

func (r *recordingObserver) EngineRound(int) {}

// failingObserver fails the test on any callback.
type failingObserver struct{ t *testing.T }

func (f failingObserver) PhaseCharged(string, int, int) {
	f.t.Fatal("observer on a nil Cost must never fire")
}

func (f failingObserver) TrafficCharged(string, int64, int64) {
	f.t.Fatal("observer on a nil Cost must never fire")
}

func (f failingObserver) EngineRound(int) {}

// TestCostProgressObservesEveryRoundCharge: the observer sees every
// round charge, in order, with the phase's and the Cost's totals so far,
// and every traffic charge, which moves no round count.
func TestCostProgressObservesEveryRoundCharge(t *testing.T) {
	obs := &recordingObserver{}
	var c dist.Cost
	c.SetObserver(obs)
	c.Charge(3, "peel")
	c.Charge(2, "peel")
	c.ChargeMax(4, "cluster")
	c.ChargeMax(2, "cluster") // no-op raise still reports current state
	c.ChargeMessages(10, 80, "peel")

	wantPhases := []progressCall{
		{"peel", 3, 3},
		{"peel", 5, 5},
		{"cluster", 4, 9},
		{"cluster", 4, 9},
	}
	if !reflect.DeepEqual(obs.phases, wantPhases) {
		t.Fatalf("phase charges:\n got %+v\nwant %+v", obs.phases, wantPhases)
	}
	wantTraffic := []trafficCall{{"peel", 10, 80}}
	if !reflect.DeepEqual(obs.traffic, wantTraffic) {
		t.Fatalf("traffic charges:\n got %+v\nwant %+v", obs.traffic, wantTraffic)
	}
}

func TestCostProgressNilReceiverAndRemoval(t *testing.T) {
	var nilc *dist.Cost
	nilc.SetObserver(failingObserver{t})
	nilc.Charge(1, "x")
	nilc.ChargeMessages(1, 1, "x")

	obs := &recordingObserver{}
	var c dist.Cost
	c.SetObserver(obs)
	c.Charge(1, "x")
	c.SetObserver(nil)
	c.Charge(1, "x")
	c.ChargeMessages(1, 1, "x")
	if len(obs.phases) != 1 || len(obs.traffic) != 0 {
		t.Fatalf("got %d phase and %d traffic charges after removal, want 1 and 0", len(obs.phases), len(obs.traffic))
	}
}

// loggingObserver keeps every callback, of either kind, in one log in
// the order it arrived, the way a trace recorder turns them into spans.
type loggingObserver struct{ log []string }

func (l *loggingObserver) PhaseCharged(phase string, phaseRounds, total int) {
	l.log = append(l.log, fmt.Sprintf("rounds %s %d %d", phase, phaseRounds, total))
}

func (l *loggingObserver) TrafficCharged(phase string, msgs, bits int64) {
	l.log = append(l.log, fmt.Sprintf("traffic %s %d %d", phase, msgs, bits))
}

func (l *loggingObserver) EngineRound(int) {}

// TestCostSpanObserverSeesEveryCharge: round and traffic charges that
// interleave reach the observer interleaved, each as it is made, so a
// span built from the calls closes on the charge that really came last.
func TestCostSpanObserverSeesEveryCharge(t *testing.T) {
	obs := &loggingObserver{}
	var c dist.Cost
	c.SetObserver(obs)
	c.Charge(2, "peel")
	c.ChargeMessages(10, 80, "peel")
	c.ChargeMax(3, "cluster")
	c.ChargeMessages(4, 32, "cluster")
	c.ChargeMessages(6, 48, "peel")
	c.Charge(1, "peel")

	want := []string{
		"rounds peel 2 2",
		"traffic peel 10 80",
		"rounds cluster 3 5",
		"traffic cluster 4 32",
		"traffic peel 6 48",
		"rounds peel 3 6",
	}
	if !reflect.DeepEqual(obs.log, want) {
		t.Fatalf("observed charges:\n got %q\nwant %q", obs.log, want)
	}
	if c.Messages() != 20 || c.Bits() != 160 {
		t.Fatalf("cost holds %d msgs / %d bits, want 20 / 160", c.Messages(), c.Bits())
	}
}

// TestCostSpanObserverNilReceiverAndRemoval: a nil Cost fires nothing
// on ChargeMax or ChargeMessages; installing a second observer detaches
// the first, and removing it leaves neither seeing further charges.
func TestCostSpanObserverNilReceiverAndRemoval(t *testing.T) {
	var nilc *dist.Cost
	nilc.SetObserver(failingObserver{t})
	nilc.ChargeMax(2, "x")
	nilc.ChargeMessages(3, 24, "x")

	first, second := &loggingObserver{}, &loggingObserver{}
	var c dist.Cost
	c.SetObserver(first)
	c.ChargeMax(2, "x")
	c.SetObserver(second)
	c.ChargeMessages(3, 24, "x")
	c.SetObserver(nil)
	c.ChargeMax(5, "x")
	c.ChargeMessages(1, 8, "x")

	if want := []string{"rounds x 2 2"}; !reflect.DeepEqual(first.log, want) {
		t.Fatalf("first observer saw %q, want %q", first.log, want)
	}
	if want := []string{"traffic x 3 24"}; !reflect.DeepEqual(second.log, want) {
		t.Fatalf("second observer saw %q, want %q", second.log, want)
	}
}

// TestSpansContextRoundTrip: an observer survives contexts derived
// from the one carrying it, a nested WithObserver shadows it only below
// that point, and the recovered observer, installed on a Cost as algo.Run
// does, sees that Cost's charges.
func TestSpansContextRoundTrip(t *testing.T) {
	outer, inner := &loggingObserver{}, &loggingObserver{}
	ctx, cancel := context.WithCancel(dist.WithObserver(context.Background(), outer))
	defer cancel()
	nested := dist.WithObserver(ctx, inner)

	if got := dist.ObserverFromContext(ctx); got != dist.Observer(outer) {
		t.Fatalf("derived context carries %v, want the outer observer", got)
	}
	if got := dist.ObserverFromContext(nested); got != dist.Observer(inner) {
		t.Fatalf("nested context carries %v, want the inner observer", got)
	}

	var c dist.Cost
	c.SetObserver(dist.ObserverFromContext(nested))
	c.ChargeMessages(2, 16, "p")
	if len(outer.log) != 0 || !reflect.DeepEqual(inner.log, []string{"traffic p 2 16"}) {
		t.Fatalf("outer saw %q, inner saw %q; want only the inner to see the charge", outer.log, inner.log)
	}
}

func TestProgressContextRoundTrip(t *testing.T) {
	if dist.ObserverFromContext(context.Background()) != nil {
		t.Fatal("background context must carry no observer")
	}
	obs := &recordingObserver{}
	ctx := dist.WithObserver(context.Background(), obs)
	got := dist.ObserverFromContext(ctx)
	if got != dist.Observer(obs) {
		t.Fatalf("recovered observer %v is not the installed one", got)
	}
	got.PhaseCharged("p", 1, 1)
	if len(obs.phases) != 1 {
		t.Fatal("recovered observer is not the installed one")
	}
}
