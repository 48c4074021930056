package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one input set and traffic mix.
type workload struct {
	run func(ctx context.Context, cfg config, res *result) error
}

// endToEndSegments is how many segments an end-to-end run splits its
// window into. Each segment starts a fresh server and sets it up before it
// is measured, so set-ups and ops are spread alike over the run.
const endToEndSegments = 5

var workloads = map[string]workload{
	// Re-solving a graph the daemon already holds: decode is bypassed and
	// the partition cache is warm, so the time sits in distribute, the
	// kernels and gather/verify/format.
	"warm-ref": {run: func(ctx context.Context, cfg config, res *result) error {
		return runServe(ctx, cfg, warmRef, res)
	}},
	// The first solve of a new configuration: every job has a new seed, so
	// the partition cache and the result cache both miss.
	"cold-ref": {run: func(ctx context.Context, cfg config, res *result) error {
		return runServe(ctx, cfg, coldRef, res)
	}},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

const (
	algoMatch = "match"
	algoColor = "color"
)

// jobSpec is one job of a workload's sequence.
type jobSpec struct {
	algo string
	seed uint64
}

// jobAt returns job k of a sequence that alternates matching and coloring.
// With fresh=false the seed cycles over four fixed seeds derived from the
// workload seed, so the sequence repeats every eight jobs; with fresh=true
// every job has a seed no earlier job of the run used.
func jobAt(k int, seed uint64, fresh bool) jobSpec {
	algo := algoMatch
	if k%2 == 1 {
		algo = algoColor
	}
	if fresh {
		return jobSpec{algo, 1<<40 | seed<<20 | uint64(k)}
	}
	return jobSpec{algo, fixedSeeds(seed)[(k/2)%4]}
}

// fixedSeeds are the four job seeds of the repeating workloads.
func fixedSeeds(seed uint64) [4]uint64 {
	b := 8*seed + 1
	return [4]uint64{b, b + 1, b + 2, b + 3}
}

// loopStats is what a closed loop measured.
type loopStats struct {
	lats      []float64 // ms, successful ops only
	attempted int
	failed    int
	errs      []error
	elapsed   time.Duration
}

func (s *loopStats) jobsPerSec() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.attempted-s.failed) / s.elapsed.Seconds()
}

// closedLoop runs callers that each issue the next op only after the
// previous one completed, until dur has passed: a slow system receives less
// load. next hands out op indices; op returns the op's latency (the part
// to time) and its error, a wrong answer included. The window ends when
// the last caller's last op does.
func closedLoop(ctx context.Context, callers int, dur time.Duration, next *atomic.Int64,
	op func(k int) (time.Duration, error)) *loopStats {
	st := &loopStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	until := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				lat, err := op(k)
				mu.Lock()
				st.attempted++
				if err != nil {
					st.failed++
					st.errs = append(st.errs, fmt.Errorf("op %d: %w", k, err))
				} else {
					st.lats = append(st.lats, float64(lat)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// recordSegments folds the segments' ops into the result and reports the
// end-to-end throughput and latency metrics. Throughput and p50 are the
// median over the segments of the segment's figure, so a host slowdown
// that covers fewer than half of the segments moves neither. p90 is taken
// over all the run's ops, since a segment alone may have too few samples
// beyond its p90.
func recordSegments(res *result, segs []*loopStats) {
	var tput, p50, lats []float64
	for _, st := range segs {
		res.ops(st)
		tput = append(tput, st.jobsPerSec())
		p50 = append(p50, median(st.lats))
		lats = append(lats, st.lats...)
	}
	n := len(lats)
	res.setBase("jobs_per_s", median(tput), n, "window", fmt.Sprintf("per segment %.2f", tput))
	res.setBase("job_p50_ms", median(p50), n, "window", fmt.Sprintf("per segment %.1f", p50))
	res.setBase("job_p90_ms", percentile(lats, 0.9), n, "window", fmt.Sprintf("%d samples beyond it", tailSamples(n, 0.9)))
	if tail := tailSamples(n, 0.9); tail < 10 && !res.prov.Trace {
		res.note("job_p90_ms rests on %d samples beyond it (want at least 10): lengthen --seconds", tail)
	}
}

// setupMedian reports setup_s as the median of the run's set-ups.
func setupMedian(res *result, setups []float64) {
	res.setBase("setup_s", median(setups), len(setups), "setup", fmt.Sprintf("%.3f", setups))
}
