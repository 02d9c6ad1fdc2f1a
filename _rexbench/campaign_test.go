package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"rexchange/internal/des"
	"rexchange/internal/obs"
)

// TestSetupMatchesRunCampaign pins the benchmark's campaign set-up, with
// every seam wrapped and the recorder attached, to des.RunCampaign: the
// report, the campaign counters and the journal must be byte-identical, so
// the wrappers and telemetry cannot perturb what the benchmark measures.
func TestSetupMatchesRunCampaign(t *testing.T) {
	for _, variant := range []string{"solve", "baseline"} {
		t.Run(variant, func(t *testing.T) {
			cp := rebalanceCampaign(3)
			cp.variant = variant
			cp.cfg.Machines, cp.cfg.Shards, cp.cfg.Rounds = 60, 700, 6
			cp.cfg.Iterations = 150

			var journal bytes.Buffer
			ref := cp.cfg
			ref.Registry = obs.NewRegistry()
			ref.Journal = obs.NewJournal(&journal)
			want, err := des.RunCampaign(ref, variant)
			if err != nil {
				t.Fatal(err)
			}

			l := &layers{}
			r, err := setupCampaign(cp, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Report.Render(), want.Report.Render(); g != w {
				t.Errorf("report differs:\n got %s\nwant %s", g, w)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if !bytes.Equal(gj, wj) {
				t.Errorf("campaign result differs:\n got %s\nwant %s", gj, wj)
			}
			if r.sink.bytes != journal.Len() || r.sink.records != ref.Journal.Len() {
				t.Errorf("journal: %d bytes / %d records, RunCampaign wrote %d / %d",
					r.sink.bytes, r.sink.records, journal.Len(), ref.Journal.Len())
			}
			if l.sleepCalls == 0 || l.nextCalls != cp.cfg.Rounds {
				t.Errorf("wrappers not on the path: %d sleeps, %d snapshots", l.sleepCalls, l.nextCalls)
			}
			if variant == "solve" && (got.Solves == 0 || len(l.rec.runs) != got.Solves*cp.cfg.Restarts) {
				t.Errorf("recorder saw %d runs for %d solves", len(l.rec.runs), got.Solves)
			}
		})
	}
}

// TestOfferedWrapsTrace checks the offered-query count against a trace
// replayed past its end.
func TestOfferedWrapsTrace(t *testing.T) {
	cp := rebalanceCampaign(1)
	cp.cfg.Machines, cp.cfg.Shards, cp.cfg.Rounds = 20, 200, 3
	r, err := setupCampaign(cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(r.trace.Queries))
	if got := offered(r.trace, r.trace.Duration); got != n {
		t.Errorf("offered over one pass = %d, want %d", got, n)
	}
	if got := offered(r.trace, 2*r.trace.Duration); got != 2*n {
		t.Errorf("offered over two passes = %d, want %d", got, 2*n)
	}
	if got := offered(r.trace, 0); got != 0 {
		t.Errorf("offered at t=0 = %d, want 0", got)
	}
}

// TestBenchmarkJSONListsMetrics keeps BENCHMARK.json's workloads and metric
// lists in step with the tables the runs are checked against.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		got  []entry
		want []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i] != (entry{m.name, m.unit}) {
				t.Errorf("%s[%d] = %v, want %v", c.kind, i, c.got[i], m)
			}
		}
	}
}
