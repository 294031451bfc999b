package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/uid"
)

// fakeModel builds hierarchies shaped like the bulk load's, with UIDs
// handed out in order.
func fakeModel(hiers, depth, fanout int) ([]*hier, func() uid.UID) {
	var serial uint64
	next := func() uid.UID { serial++; return uid.UID{Class: 1, Serial: serial} }
	hs := make([]*hier, hiers)
	for i := range hs {
		h := &hier{root: next()}
		level := []uid.UID{h.root}
		for d := 1; d <= depth; d++ {
			var nl []uid.UID
			for range level {
				for f := 0; f < fanout; f++ {
					nl = append(nl, next())
				}
			}
			h.inner = append(h.inner, level...)
			if d == depth {
				h.attach, h.leaves = level, nl
			}
			level = nl
		}
		hs[i] = h
	}
	return hs, next
}

// opSequence draws n ops per session, applying each to the model the
// way an acknowledged reply would.
func opSequence(seed int64, w *workload, n int) []op {
	const sessions = 2
	hs, next := fakeModel(40, 3, 4)
	hot := popularity(seed, len(hs))
	var out []op
	for s := 0; s < sessions; s++ {
		g := newGen(seed, s, sessions, hot, w.m, w.shared, w.cands)
		for i := 0; i < n; i++ {
			o := g.next(hs)
			switch o.kind {
			case opMake:
				hs[o.h].addLeaf(next())
			case opDelete:
				hs[o.h].removeLeaf(o.slot)
			}
			out = append(out, o)
		}
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for name, w := range workloads {
		a, b := opSequence(7, w, 3000), opSequence(7, w, 3000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
		if reflect.DeepEqual(a, opSequence(8, w, 3000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
		kinds := map[opKind]int{}
		for _, o := range a {
			kinds[o.kind]++
		}
		if kinds[opSet] == 0 || kinds[opRead]+kinds[opQuery] == 0 {
			t.Errorf("%s: mix has no reads or no sets: %v", name, kinds)
		}
	}
}

func TestPercentiles(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // unsorted on purpose
		l = append(l, int64(i))
	}
	for q, want := range map[float64]int64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got, ok := l.quantile(q); !ok || got != want {
			t.Errorf("quantile(%v) = %d, %v; want %d", q, got, ok, want)
		}
	}
	if l[0] != 100 {
		t.Error("quantile sorted its receiver")
	}
	if _, ok := (latencies{}).quantile(0.5); ok {
		t.Error("empty sample has a median")
	}
	for n, want := range map[int]float64{999: 0, 1000: 0.99, 10000: 0.999, 100000: 0.9999} {
		got, ok := deepestTail(n)
		if ok != (want > 0) || got != want {
			t.Errorf("deepestTail(%d) = %v, %v; want %v", n, got, ok, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	win := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	at := func(i int) ratio { return present(win[i]) }
	if got := goodWindow(len(win), true, at); got.v != 7 {
		t.Errorf("goodWindow(higher) = %v, want the 70th percentile 7", got)
	}
	if got := goodWindow(len(win), false, at); got.v != 3 {
		t.Errorf("goodWindow(lower) = %v, want the 30th percentile 3", got)
	}
	if got := goodWindow(3, true, func(int) ratio { return ratio{} }); got.ok {
		t.Errorf("goodWindow over absent windows = %v", got)
	}
}

func TestZeroBaseIsAbsent(t *testing.T) {
	r := div(1, 0)
	if r.ok || r.String() != "absent" || math.IsNaN(r.v) || math.IsInf(r.v, 0) {
		t.Fatalf("div(1, 0) = %+v %q", r, r)
	}
	if got := div(0, 0).String(); got != "absent" {
		t.Fatalf("div(0, 0) prints %q", got)
	}
	if got := div(1, 4).String(); got != "0.25" {
		t.Fatalf("div(1, 4) prints %q", got)
	}
	res := result{defs: perLayer, metrics: map[string]ratio{"shard.prepares_per_cross_commit": div(3, 0)}, attempted: 1}
	if _, err := json.Marshal(res.final()); err != nil {
		t.Fatalf("final line with an absent ratio: %v", err)
	}
}

func TestReconcile(t *testing.T) {
	tr := newTracer(1)
	tr.segStart = []int64{0}
	tr.sessions[0].spans = []span{
		{name: "write", layer: "bench", start: 10, end: 100, parent: -1, seg: 0},
		{name: "client.Do", layer: "server", start: 20, end: 90, parent: 0},
		{name: "write", layer: "bench", start: 110, end: 200, parent: -1, seg: 0},
	}
	rc := tr.reconcile()
	if rc.wall != 200 || rc.gaps != 20 || rc.self["server"] != 70 || rc.self["bench"] != 110 || rc.errFrac() != 0 {
		t.Fatalf("nested spans: %+v err %v", rc, rc.errFrac())
	}
	// A child that outlives its parent double-counts the overhang.
	tr.sessions[0].spans[1].end = 150
	if rc := tr.reconcile(); rc.errFrac() == 0 {
		t.Fatalf("child outside its parent reconciled: %+v", rc)
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and requires its correctness checks to pass with no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := defaultConfig()
			cfg.workload, cfg.seed, cfg.seconds, cfg.trace = name, 3, 0.4, trace
			cfg.hiers, cfg.setups, cfg.reopens, cfg.warmOps = 12, 2, 2, 20
			cfg.work = t.TempDir()
			var report strings.Builder
			res, err := run(cfg, &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.correct, res.failed, res.attempted, report.String())
			}
			if _, err := json.Marshal(res.final()); err != nil {
				t.Errorf("%s: final line: %v", name, err)
			}
			for _, d := range res.defs {
				if !res.metrics[d.name].ok && !trace {
					t.Errorf("%s: end-to-end metric %s absent", name, d.name)
				}
			}
		}
	}
}
