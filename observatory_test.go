package april_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"april"
)

// stripHostPerf clears the host-side throughput fields, which
// legitimately vary run to run; everything else is simulated state and
// must be bit-identical.
func stripHostPerf(r april.Result) april.Result {
	r.Perf = april.RunPerf{}
	return r
}

func httpGetBody(t *testing.T, url string) string {
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
	return string(body)
}

// TestObsDifferentialMatrix proves the observatory is observation-only:
// for fib and queens on perfect and ALEWIFE memory, a run with the full
// observatory armed — live server, event trace, timeline, counter
// snapshot — reproduces the plain run's result bit-identically.
func TestObsDifferentialMatrix(t *testing.T) {
	for _, benchName := range []string{"fib", "queens"} {
		src := april.BenchmarkSource(benchName, april.TestSizes)
		for _, alewife := range []bool{false, true} {
			name := benchName
			if alewife {
				name += "/alewife"
			} else {
				name += "/perfect"
			}

			plain := april.Options{Processors: 8, Output: io.Discard}
			if alewife {
				plain.Alewife = &april.AlewifeOptions{}
			}
			base, err := april.Run(src, plain)
			if err != nil {
				t.Fatalf("%s: plain run: %v", name, err)
			}

			var chrome, timeline, counters bytes.Buffer
			o := plain
			o.Serve = "127.0.0.1:0"
			o.Trace = &april.TraceOptions{
				ChromeOut:    &chrome,
				TimelineOut:  &timeline,
				TimelineJSON: true,
				CountersOut:  &counters,
			}
			got, err := april.Run(src, o)
			if err != nil {
				t.Fatalf("%s: observed run: %v", name, err)
			}
			if stripHostPerf(got) != stripHostPerf(base) {
				t.Errorf("%s: observed result differs from plain run:\n got %+v\nwant %+v",
					name, stripHostPerf(got), stripHostPerf(base))
			}
			if chrome.Len() == 0 || timeline.Len() == 0 || counters.Len() == 0 {
				t.Errorf("%s: empty observability output (chrome %d, timeline %d, counters %d bytes)",
					name, chrome.Len(), timeline.Len(), counters.Len())
			}
		}
	}
}

// TestObsLiveEndpoints exercises the live server against a real
// machine: ServeNotify fires after the server is up but before the run
// loop starts, so querying inside the callback observes the run
// deterministically mid-flight (cycle 0, not done).
func TestObsLiveEndpoints(t *testing.T) {
	src := april.BenchmarkSource("queens", april.TestSizes)
	var progressBody, metricsBody, countersBody string
	o := april.Options{
		Processors: 8,
		Alewife:    &april.AlewifeOptions{},
		Output:     io.Discard,
		Serve:      "127.0.0.1:0",
		ServeNotify: func(url string) {
			progressBody = httpGetBody(t, url+"/progress")
			metricsBody = httpGetBody(t, url+"/metrics")
			countersBody = httpGetBody(t, url+"/counters")
		},
	}
	res, err := april.Run(src, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("run did not execute")
	}

	var p struct {
		Cycle uint64 `json:"cycle"`
		Nodes int    `json:"nodes"`
		Done  bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(progressBody), &p); err != nil {
		t.Fatalf("progress JSON: %v\n%s", err, progressBody)
	}
	if p.Nodes != 8 || p.Done {
		t.Errorf("progress = %+v", p)
	}

	for _, want := range []string{
		"april_machine_cycles",
		"april_network_messages",
		"april_epoch_windows",
		`april_proc_instructions{node="7"}`,
		`april_memory_cache_hits{node="7"}`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, metricsBody)
		}
	}

	var counters map[string]map[string]uint64
	if err := json.Unmarshal([]byte(countersBody), &counters); err != nil {
		t.Fatalf("counters JSON: %v", err)
	}
	for _, group := range []string{"machine", "network", "epoch", "node0.proc", "node7.memory"} {
		if _, ok := counters[group]; !ok {
			t.Errorf("counters missing group %q", group)
		}
	}
}
