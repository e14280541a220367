package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nwforest/internal/dist"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stepClock returns a clock that pops the given instants in order and
// fails the test if the code under test reads it more often than the
// scenario scripted.
func stepClock(t *testing.T, at ...time.Time) func() time.Time {
	t.Helper()
	i := 0
	return func() time.Time {
		if i >= len(at) {
			t.Fatalf("clock read %d times, scripted %d", i+1, len(at))
		}
		v := at[i]
		i++
		return v
	}
}

var epoch = time.Unix(1_700_000_000, 0).UTC()

func ms(d int) time.Time { return epoch.Add(time.Duration(d) * time.Millisecond) }

// scriptedRecorder replays a fixed job timeline: queued at the epoch,
// started at +5ms, two phases charged, traffic on the first, rounds
// sampled every 2nd, finished at +25ms, plus a post-finish HTTP span.
func scriptedRecorder(t *testing.T) *Recorder {
	t.Helper()
	rec := NewRecorder("j-7", epoch, 2)
	rec.setClock(stepClock(t,
		ms(10), // PhaseCharged peel
		ms(11), // TrafficCharged peel
		ms(12), // EngineRound 0
		ms(13), // EngineRound 2
		ms(20), // PhaseCharged cluster
	))
	rec.BeginExecution(ms(5))
	rec.PhaseCharged("peel", 3, 3)
	rec.TrafficCharged("peel", 10, 640)
	rec.EngineRound(0)
	rec.EngineRound(1) // not sampled: must not read the clock
	rec.EngineRound(2)
	rec.PhaseCharged("cluster", 4, 7)
	rec.AddSpan("queue", "job", epoch, ms(5), nil)
	rec.AddSpan("run decompose", "job", ms(5), ms(25),
		map[string]any{"state": "done", "cached": false})
	rec.Finish(ms(25), []dist.Phase{
		{Name: "peel", Rounds: 3, Messages: 10, Bits: 640},
		{Name: "cluster", Rounds: 4},
		{Name: "verify", Rounds: 1},
	})
	rec.AddSpan("http POST /jobs", "request", epoch, ms(1), nil)
	return rec
}

func TestRecorderPhaseAttribution(t *testing.T) {
	rec := scriptedRecorder(t)
	phases := rec.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3 (charge-stream two + breakdown's verify)", len(phases))
	}
	peel, cluster, verify := phases[0], phases[1], phases[2]

	// peel's work ran from BeginExecution (+5ms) to its charge (+10ms).
	if peel.Name != "peel" || peel.First != ms(5) || peel.Self != 5*time.Millisecond {
		t.Fatalf("peel = %+v, want First=+5ms Self=5ms", peel)
	}
	// cluster's work ran from peel's charge (+10ms) to its own (+20ms);
	// the traffic charge in between must not move the attribution clock.
	if cluster.First != ms(10) || cluster.Self != 10*time.Millisecond {
		t.Fatalf("cluster = %+v, want First=+10ms Self=10ms", cluster)
	}
	// verify never appeared in the charge stream: Finish materializes it
	// from the breakdown with zero self time.
	if verify.Name != "verify" || verify.Self != 0 || verify.Rounds != 1 {
		t.Fatalf("verify = %+v, want zero-self span with Rounds=1", verify)
	}
	// The breakdown's totals are authoritative over the live stream.
	if peel.Rounds != 3 || peel.Messages != 10 || peel.Bits != 640 {
		t.Fatalf("peel totals = %+v, want rounds=3 messages=10 bits=640", peel)
	}
}

func TestRecorderFinishIdempotent(t *testing.T) {
	rec := NewRecorder("j-1", epoch, 0)
	rec.Finish(ms(10), []dist.Phase{{Name: "a", Rounds: 1}})
	rec.Finish(ms(99), []dist.Phase{{Name: "b", Rounds: 9}})
	phases := rec.Phases()
	if len(phases) != 1 || phases[0].Name != "a" {
		t.Fatalf("second Finish must lose; phases = %+v", phases)
	}
}

func TestRecorderRoundEventCap(t *testing.T) {
	rec := NewRecorder("j-1", epoch, 1)
	rec.setClock(func() time.Time { return epoch })
	for i := 0; i < maxRoundEvents+50; i++ {
		rec.EngineRound(i)
	}
	rec.Finish(epoch, nil)
	if len(rec.rounds) != maxRoundEvents {
		t.Fatalf("retained %d round events, want the cap %d", len(rec.rounds), maxRoundEvents)
	}
	if rec.roundsDropped != 50 {
		t.Fatalf("dropped counter = %d, want 50", rec.roundsDropped)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("rounds dropped")) {
		t.Fatal("export of a capped trace must carry the 'rounds dropped' instant")
	}
}

// TestWriteJSONGolden locks the exported trace-event JSON byte-for-byte
// (testdata/job.trace.json, regenerate with -update) and checks it
// against the trace-event schema validator — the same one cmd/obscheck
// runs against live servers in CI.
func TestWriteJSONGolden(t *testing.T) {
	rec := scriptedRecorder(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTraceEvents(buf.Bytes()); err != nil {
		t.Fatalf("export fails its own schema validator: %v", err)
	}
	golden := filepath.Join("testdata", "job.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export drifted from golden:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestWriteJSONOneSpanPerPhase pins the acceptance shape: every phase of
// the finishing cost breakdown exports as exactly one complete span with
// rounds/messages/bits attached.
func TestWriteJSONOneSpanPerPhase(t *testing.T) {
	rec := scriptedRecorder(t)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	phaseSpans := map[string]map[string]any{}
	var rounds, metas int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M":
			metas++
		case ev.Cat == "phase" && ev.Ph == "X":
			if _, dup := phaseSpans[ev.Name]; dup {
				t.Fatalf("phase %q exported more than one span", ev.Name)
			}
			phaseSpans[ev.Name] = ev.Args
		case ev.Cat == "round" && ev.Ph == "i":
			rounds++
		}
	}
	if metas != 3 {
		t.Fatalf("got %d metadata events, want process_name + 2 thread_names", metas)
	}
	if rounds != 2 {
		t.Fatalf("got %d round instants, want 2 (rounds 0 and 2)", rounds)
	}
	want := map[string][3]float64{ // rounds, messages, bits
		"peel":    {3, 10, 640},
		"cluster": {4, 0, 0},
		"verify":  {1, 0, 0},
	}
	if len(phaseSpans) != len(want) {
		t.Fatalf("phase spans %v, want exactly %v", phaseSpans, want)
	}
	for name, w := range want {
		args := phaseSpans[name]
		if args == nil {
			t.Fatalf("phase %q has no span", name)
		}
		got := [3]float64{args["rounds"].(float64), args["messages"].(float64), args["bits"].(float64)}
		if got != w {
			t.Fatalf("phase %q args = %v, want rounds/messages/bits %v", name, got, w)
		}
	}
}

func TestValidateTraceEventsRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":          `]`,
		"no traceEvents":    `{"foo": []}`,
		"missing name":      `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"missing ph":        `{"traceEvents":[{"name":"a","ts":0,"pid":1,"tid":1}]}`,
		"unknown ph":        `{"traceEvents":[{"name":"a","ph":"Z","ts":0,"pid":1,"tid":1}]}`,
		"missing ts":        `{"traceEvents":[{"name":"a","ph":"X","dur":1,"pid":1,"tid":1}]}`,
		"negative ts":       `{"traceEvents":[{"name":"a","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]}`,
		"missing pid":       `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1,"tid":1}]}`,
		"complete no dur":   `{"traceEvents":[{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]}`,
		"negative dur":      `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		"bad instant scope": `{"traceEvents":[{"name":"a","ph":"i","ts":0,"pid":1,"tid":1,"s":"x"}]}`,
		"metadata no name":  `{"traceEvents":[{"name":"process_name","ph":"M","args":{}}]}`,
	}
	for label, payload := range cases {
		if err := ValidateTraceEvents([]byte(payload)); err == nil {
			t.Errorf("%s: validator accepted %s", label, payload)
		}
	}
	ok := `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":2,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`
	if err := ValidateTraceEvents([]byte(ok)); err != nil {
		t.Errorf("validator rejected a minimal valid payload: %v", err)
	}
}
