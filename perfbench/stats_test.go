package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if median(nil) != 0 || percentile(nil, 0.9) != 0 {
		t.Error("empty samples must report 0")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", got)
	}
	if got := percentile(hundred, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v", got)
	}
}

// A percentile is trusted only with ten samples beyond it: p90 needs 100.
func TestTailSamples(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{{100, 10}, {99, 9}, {109, 10}, {110, 11}, {10, 1}, {1, 0}, {0, 0}} {
		if got := tailSamples(c.n, 0.9); got != c.want {
			t.Errorf("tailSamples(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	if r := (ratio{3, 4}); r.value() != 0.75 || r.base() != "3/4" {
		t.Errorf("3/4 = %v %q", r.value(), r.base())
	}
	// Nothing happened is not the same as never working: both read 0, but
	// the base tells them apart.
	none, never := ratio{0, 0}, ratio{0, 12}
	if none.value() != 0 || never.value() != 0 || none.base() == never.base() {
		t.Errorf("0/0 and 0/12 must differ in base: %q %q", none.base(), never.base())
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := obs.ExpBounds(1, 1<<10) // 1, 2, 4, ... 1024
	counts := make([]int64, len(bounds)+1)
	// 10 observations in (32, 64], 10 in (64, 128].
	counts[6], counts[7] = 10, 10
	h := obs.HistogramSnapshot{Bounds: bounds, Counts: counts, Count: 20}
	if got := histQuantile(h, 0.5); got != 64 {
		t.Errorf("p50 = %v, want 64 (top of the first occupied bucket)", got)
	}
	if got := histQuantile(h, 0.75); got != 96 {
		t.Errorf("p75 = %v, want 96 (midway through (64,128])", got)
	}
	if got := histQuantile(obs.HistogramSnapshot{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v", got)
	}
	counts2 := make([]int64, len(bounds)+1)
	counts2[len(bounds)] = 3 // all in overflow
	if got := histQuantile(obs.HistogramSnapshot{Bounds: bounds, Counts: counts2, Count: 3}, 0.5); got != 1024 {
		t.Errorf("overflow p50 = %v, want the last bound", got)
	}
}

func TestHistDelta(t *testing.T) {
	before := obs.HistogramSnapshot{Bounds: []int64{1, 2}, Counts: []int64{1, 2, 0}, Sum: 5, Count: 3}
	after := obs.HistogramSnapshot{Bounds: []int64{1, 2}, Counts: []int64{1, 5, 1}, Sum: 15, Count: 7}
	d := histDelta(after, before)
	if d.Count != 4 || d.Sum != 10 || d.Counts[0] != 0 || d.Counts[1] != 3 || d.Counts[2] != 1 {
		t.Errorf("delta = %+v", d)
	}
}

func TestSpreadBase(t *testing.T) {
	if got := spreadBase([]float64{3, 3, 3}); got != "all 3" {
		t.Errorf("repeating count: %q", got)
	}
	if got := spreadBase([]float64{216, 172, 190}); got != "172..216" {
		t.Errorf("spread count: %q", got)
	}
}

func TestJobSequence(t *testing.T) {
	seen := map[uint64]bool{}
	for k := 0; k < 1000; k++ {
		j := jobAt(k, 7, true)
		if seen[j.seed] {
			t.Fatalf("fresh seed %d repeats at op %d", j.seed, k)
		}
		seen[j.seed] = true
		for _, f := range fixedSeeds(7) {
			if j.seed == f {
				t.Fatalf("fresh seed %d collides with a fixed seed", j.seed)
			}
		}
	}
	for k := 0; k < 16; k++ {
		a, b := jobAt(k, 3, false), jobAt(k+8, 3, false)
		if a != b {
			t.Fatalf("repeating sequence differs at %d: %v vs %v", k, a, b)
		}
		if want := []string{algoMatch, algoColor}[k%2]; a.algo != want {
			t.Fatalf("op %d is %s, want %s", k, a.algo, want)
		}
		if a.seed == 0 {
			t.Fatal("seed 0 would be defaulted by the service")
		}
	}
}

// Throughput and p50 are the median over the segments of that segment's
// figure, so one slow segment of five moves neither; p90 is taken over all
// the run's ops. Every segment's ops are counted, failed ones included.
func TestRecordSegments(t *testing.T) {
	seg := func(base float64, failed int) *loopStats {
		st := &loopStats{attempted: 20 + failed, failed: failed, elapsed: 2 * time.Second}
		for i := 1; i <= 20; i++ {
			st.lats = append(st.lats, base+float64(i))
		}
		for i := 0; i < failed; i++ {
			st.errs = append(st.errs, errors.New("wrong answer"))
		}
		return st
	}
	res := newResult(config{workload: "test"})
	// Latencies 1..20 shifted by 0, 10, 1000, 20 and 30.
	recordSegments(res, []*loopStats{seg(0, 0), seg(10, 0), seg(1000, 0), seg(20, 1), seg(30, 0)})
	want := map[string]float64{"job_p50_ms": 30.5, "jobs_per_s": 10, "job_p90_ms": 1010}
	for name, v := range want {
		if got := res.metrics[name]; got.Value != v || got.Samples != 100 {
			t.Errorf("%s = %v over %d samples, want %v over 100", name, got.Value, got.Samples, v)
		}
	}
	if res.attempted != 101 || res.failed != 1 {
		t.Errorf("ops %d attempted, %d failed; want 101, 1", res.attempted, res.failed)
	}
	if len(res.notes) != 0 {
		t.Errorf("100 samples leave 10 beyond p90, yet noted %q", res.notes)
	}
	res = newResult(config{workload: "test"})
	recordSegments(res, []*loopStats{seg(0, 0), seg(0, 0)})
	if len(res.notes) != 1 {
		t.Errorf("40 samples must be noted as too few for p90, notes %q", res.notes)
	}
}
