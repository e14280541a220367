package dist_test

import (
	"context"
	"reflect"
	"testing"

	"nwforest/internal/dist"
)

type trafficCall struct {
	phase string
	msgs  int64
	bits  int64
}

// recordingSpans is a dist.SpanObserver that remembers every charge.
type recordingSpans struct {
	phases  []progressCall
	traffic []trafficCall
}

func (r *recordingSpans) PhaseCharged(phase string, phaseRounds, total int) {
	r.phases = append(r.phases, progressCall{phase, phaseRounds, total})
}

func (r *recordingSpans) TrafficCharged(phase string, msgs, bits int64) {
	r.traffic = append(r.traffic, trafficCall{phase, msgs, bits})
}

func (r *recordingSpans) EngineRound(int) {}

func TestCostSpanObserverSeesEveryCharge(t *testing.T) {
	obs := &recordingSpans{}
	var c dist.Cost
	c.SetSpans(obs)
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

func TestCostSpanObserverNilReceiverAndRemoval(t *testing.T) {
	var nilc *dist.Cost
	nilc.SetSpans(&recordingSpans{})
	nilc.Charge(1, "x") // must not panic

	obs := &recordingSpans{}
	var c dist.Cost
	c.SetSpans(obs)
	c.Charge(1, "x")
	c.SetSpans(nil)
	c.Charge(1, "x")
	if len(obs.phases) != 1 {
		t.Fatalf("got %d charges after removal, want 1", len(obs.phases))
	}
}

func TestSpansContextRoundTrip(t *testing.T) {
	if dist.SpansFromContext(context.Background()) != nil {
		t.Fatal("background context must carry no span observer")
	}
	obs := &recordingSpans{}
	ctx := dist.WithSpans(context.Background(), obs)
	if got := dist.SpansFromContext(ctx); got != dist.SpanObserver(obs) {
		t.Fatalf("recovered observer %v is not the installed one", got)
	}
}
