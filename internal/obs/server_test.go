package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"april/internal/trace"
)

// scripted builds a server over deterministic hook fakes: no machine,
// every response fully scripted by the test.
func scripted(t *testing.T, hooks Hooks) (*Server, string) {
	t.Helper()
	s := NewServer(hooks)
	url, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, url
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestObsServerProgress(t *testing.T) {
	s, url := scripted(t, Hooks{
		Progress: func() Progress {
			return Progress{Cycle: 500_000, BudgetCycles: 1_000_000,
				Instructions: 123, Utilization: 0.75, Nodes: 64}
		},
		Counters: func() map[string]map[string]uint64 { return nil },
	})

	var p Progress
	if err := json.Unmarshal(get(t, url+"/progress"), &p); err != nil {
		t.Fatal(err)
	}
	if p.Cycle != 500_000 || p.Nodes != 64 || p.Done {
		t.Errorf("unexpected progress: %+v", p)
	}
	if p.WallSeconds <= 0 {
		t.Errorf("wall seconds not filled: %+v", p)
	}
	if p.CyclesPerSecond <= 0 || p.EtaBudgetSeconds <= 0 {
		t.Errorf("rate/ETA not derived: %+v", p)
	}

	s.Finish("(42 . done)")
	if err := json.Unmarshal(get(t, url+"/progress"), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.Result != "(42 . done)" {
		t.Errorf("after Finish: %+v", p)
	}
	if p.EtaBudgetSeconds != 0 {
		t.Errorf("done run should have zero ETA: %+v", p)
	}
}

func TestObsServerCountersAndMetrics(t *testing.T) {
	snap := map[string]map[string]uint64{
		"epoch":      {"windows": 9000, "fallbacks": 3},
		"node0.proc": {"instructions": 100},
		"node1.proc": {"instructions": 101},
		"network":    {"messages": 77},
	}
	_, url := scripted(t, Hooks{
		Progress: func() Progress { return Progress{} },
		Counters: func() map[string]map[string]uint64 { return snap },
	})

	var got map[string]map[string]uint64
	if err := json.Unmarshal(get(t, url+"/counters"), &got); err != nil {
		t.Fatal(err)
	}
	if got["node1.proc"]["instructions"] != 101 || got["epoch"]["windows"] != 9000 {
		t.Errorf("counters snapshot mismatch: %v", got)
	}

	metrics := string(get(t, url+"/metrics"))
	for _, want := range []string{
		`april_proc_instructions{node="0"} 100`,
		`april_proc_instructions{node="1"} 101`,
		"april_epoch_windows 9000",
		"april_network_messages 77",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, metrics)
		}
	}
}

// readEvent consumes one SSE event (through its blank-line terminator)
// and returns the event name and the joined data payload.
func readEvent(t *testing.T, r *bufio.Reader) (event, data string) {
	t.Helper()
	var dataLines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE: %v (event %q data %v)", err, event, dataLines)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event == "" && len(dataLines) == 0 {
				continue // leading keep-alive blank
			}
			return event, strings.Join(dataLines, "\n")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			dataLines = append(dataLines, strings.TrimPrefix(line, "data: "))
		}
	}
}

func TestObsServerTimelineSSE(t *testing.T) {
	var rows []trace.Sample
	s, url := scripted(t, Hooks{
		Progress: func() Progress { return Progress{} },
		Counters: func() map[string]map[string]uint64 { return nil },
		Timeline: func(from int) []trace.Sample { return rows[from:] },
	})

	// One window closed before the client connects: arrives as backlog.
	s.Step(func() { rows = append(rows, trace.Sample{Cycle: 4096, Node: 0}) })

	resp, err := http.Get(url + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)

	event, data := readEvent(t, r)
	var sample trace.Sample
	if err := json.Unmarshal([]byte(data), &sample); err != nil {
		t.Fatal(err)
	}
	if event != "window" || sample.Cycle != 4096 {
		t.Errorf("backlog event %q %+v", event, sample)
	}

	// A window closed while connected: arrives live. Step on a second
	// goroutine so a (hypothetical) handler deadlock fails the test
	// instead of hanging it.
	stepDone := make(chan struct{})
	go func() {
		s.Step(func() { rows = append(rows, trace.Sample{Cycle: 8192, Node: 1}) })
		close(stepDone)
	}()
	event, data = readEvent(t, r)
	if err := json.Unmarshal([]byte(data), &sample); err != nil {
		t.Fatal(err)
	}
	if event != "window" || sample.Cycle != 8192 || sample.Node != 1 {
		t.Errorf("live event %q %+v", event, sample)
	}
	select {
	case <-stepDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Step blocked on a connected subscriber")
	}

	s.Finish("done-result")
	event, data = readEvent(t, r)
	if event != "done" || !strings.Contains(data, "done-result") {
		t.Errorf("terminal event %q %q", event, data)
	}
}

// TestObsServerTimelineReplay: ?from=N skips that many backlog rows,
// and a connection after Finish still replays then terminates.
func TestObsServerTimelineReplay(t *testing.T) {
	rows := []trace.Sample{{Cycle: 1}, {Cycle: 2}, {Cycle: 3}}
	s, url := scripted(t, Hooks{
		Progress: func() Progress { return Progress{} },
		Counters: func() map[string]map[string]uint64 { return nil },
		Timeline: func(from int) []trace.Sample { return rows[from:] },
	})
	s.Step(func() {}) // publishes all three rows
	s.Finish("r")

	resp, err := http.Get(url + "/timeline?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	event, data := readEvent(t, r)
	var sample trace.Sample
	if err := json.Unmarshal([]byte(data), &sample); err != nil {
		t.Fatal(err)
	}
	if event != "window" || sample.Cycle != 3 {
		t.Errorf("replay skipped wrong rows: %q %+v", event, sample)
	}
	if event, _ = readEvent(t, r); event != "done" {
		t.Errorf("want done terminator, got %q", event)
	}
}

func TestObsServerTraceDownload(t *testing.T) {
	_, url := scripted(t, Hooks{
		Progress:    func() Progress { return Progress{} },
		Counters:    func() map[string]map[string]uint64 { return nil },
		ChromeTrace: func(w io.Writer) error { _, err := io.WriteString(w, `[{"ph":"X"}]`); return err },
	})
	if got := string(get(t, url+"/trace")); got != `[{"ph":"X"}]` {
		t.Errorf("trace body %q", got)
	}
}

// TestObsServerDisabledEndpoints: hooks left nil answer 404, not panic.
func TestObsServerDisabledEndpoints(t *testing.T) {
	_, url := scripted(t, Hooks{
		Progress: func() Progress { return Progress{} },
		Counters: func() map[string]map[string]uint64 { return nil },
	})
	for _, ep := range []string{"/timeline", "/trace"} {
		resp, err := http.Get(url + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: want 404, got %s", ep, resp.Status)
		}
	}
}
